// Wire-format hot-path costs: encode/parse of the data-plane frames every
// trunk copy pays (kForward with a realistic message head, kAck), and
// FrameAssembler reassembly at socket-read chunk sizes.  items/s is
// frames; bytes/s shows the framing overhead against payload size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace {

using namespace bdps;

Message bench_message(std::size_t attributes) {
  std::vector<Attribute> attrs;
  for (std::size_t i = 0; i < attributes; ++i) {
    attrs.push_back(Attribute{std::string("A").append(std::to_string(i + 1)),
                              Value(0.1 * static_cast<double>(i + 1))});
  }
  return Message(/*id=*/123456, /*publisher=*/7, /*publish_time=*/98765.4375,
                 /*size_kb=*/50.0, std::move(attrs), /*deadline=*/123000.5);
}

void BM_WireEncodeForward(benchmark::State& state) {
  const Frame frame{
      ForwardFrame{42, 19, bench_message(static_cast<std::size_t>(
                               state.range(0)))}};
  std::vector<std::uint8_t> out;
  std::size_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    encode_frame(frame, out);
    benchmark::DoNotOptimize(out.data());
    bytes = out.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WireEncodeForward)->ArgName("attrs")->Arg(2)->Arg(8)->Arg(32);

void BM_WireParseForward(benchmark::State& state) {
  const Frame frame{
      ForwardFrame{42, 19, bench_message(static_cast<std::size_t>(
                               state.range(0)))}};
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  for (auto _ : state) {
    Frame parsed = parse_frame(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(&parsed);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_WireParseForward)->ArgName("attrs")->Arg(2)->Arg(8)->Arg(32);

void BM_WireAckRoundTrip(benchmark::State& state) {
  // The smallest frame on the trunk: header + 8 bytes.  This bounds the
  // per-frame fixed cost.
  const Frame frame{AckFrame{0x123456789abcull}};
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    encode_frame(frame, out);
    Frame parsed = parse_frame(out.data(), out.size());
    benchmark::DoNotOptimize(&parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireAckRoundTrip);

void BM_WireAssemblerChunked(benchmark::State& state) {
  // A batch of forward frames fed at a fixed chunk size, as a socket read
  // loop would: measures the buffering + reparse overhead per frame.
  constexpr int kFrames = 64;
  const Frame frame{ForwardFrame{42, 19, bench_message(4)}};
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < kFrames; ++i) encode_frame(frame, stream);
  const auto chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    FrameAssembler assembler;
    std::size_t offset = 0;
    int got = 0;
    while (offset < stream.size()) {
      const std::size_t take = std::min(chunk, stream.size() - offset);
      assembler.feed(stream.data() + offset, take);
      offset += take;
      while (auto f = assembler.next()) {
        benchmark::DoNotOptimize(&*f);
        ++got;
      }
    }
    if (got != kFrames) state.SkipWithError("lost frames");
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_WireAssemblerChunked)
    ->ArgName("chunk")
    ->Arg(16)
    ->Arg(512)
    ->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
