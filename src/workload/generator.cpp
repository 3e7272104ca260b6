#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace bdps {

namespace {
// Names are built with append, not as `"A" + std::to_string(n)`: GCC 12
// flags that operator+ with a spurious -Wrestrict in optimised builds.
std::string attribute_name(int index) {
  return std::string("A").append(std::to_string(index + 1));
}

/// Churn-pool attribute names; a distinct prefix from the §6.1 "A" space
/// so mixed workloads cannot alias.
std::string churn_attribute_name(std::size_t index) {
  return std::string("Z").append(std::to_string(index + 1));
}
}  // namespace

std::vector<std::shared_ptr<const Message>> generate_messages(
    Rng& rng, const WorkloadConfig& config, std::size_t publisher_count) {
  std::vector<std::shared_ptr<const Message>> messages;

  const double mean_gap_ms = 60000.0 / config.publishing_rate_per_min;
  const auto synthesize = [&](std::size_t p, TimeMs t) {
    std::vector<Attribute> head;
    head.reserve(static_cast<std::size_t>(config.attribute_count));
    for (int a = 0; a < config.attribute_count; ++a) {
      head.push_back(Attribute{
          attribute_name(a),
          Value(rng.uniform(config.attribute_lo, config.attribute_hi))});
    }
    const TimeMs allowed =
        config.scenario == ScenarioKind::kSsd
            ? kNoDeadline
            : rng.uniform(config.psd_delay_lo, config.psd_delay_hi);
    // Heads with repeated attribute names sit outside the matching
    // engines' equivalence contract (message/message.h); every generator
    // feeding the index pins uniqueness here.
    assert(head_has_unique_attribute_names(head));
    messages.push_back(std::make_shared<Message>(
        /*id=*/0, static_cast<PublisherId>(p), t, config.message_size_kb,
        std::move(head), allowed));
  };
  for (std::size_t p = 0; p < publisher_count; ++p) {
    // Fixed-interval publishers get a random phase so they do not fire in
    // lock-step across the system.
    TimeMs t = config.poisson_arrivals ? rng.exponential(mean_gap_ms)
                                       : rng.uniform(0.0, mean_gap_ms);
    while (t < config.duration) {
      synthesize(p, t);
      t += config.poisson_arrivals ? rng.exponential(mean_gap_ms)
                                   : mean_gap_ms;
    }
  }
  // Flash-crowd bursts: superpose an extra Poisson process per publisher at
  // (multiplier - 1) × the base rate inside each window.  Drawn after the
  // base schedule so burst-free configs consume the identical stream.
  for (const WorkloadConfig::PublishBurst& burst : config.bursts) {
    if (!(burst.rate_multiplier > 1.0) || !(burst.duration > 0.0)) continue;
    const double extra_gap = mean_gap_ms / (burst.rate_multiplier - 1.0);
    const TimeMs burst_end = std::min(burst.at + burst.duration,
                                      config.duration);
    for (std::size_t p = 0; p < publisher_count; ++p) {
      TimeMs t = burst.at + rng.exponential(extra_gap);
      while (t < burst_end) {
        synthesize(p, t);
        t += rng.exponential(extra_gap);
      }
    }
  }

  std::sort(messages.begin(), messages.end(),
            [](const auto& a, const auto& b) {
              if (a->publish_time() != b->publish_time()) {
                return a->publish_time() < b->publish_time();
              }
              return a->publisher() < b->publisher();
            });
  // Re-stamp ids in publication order (stable diagnostics across runs).
  std::vector<std::shared_ptr<const Message>> result;
  result.reserve(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Message& m = *messages[i];
    result.push_back(std::make_shared<Message>(
        static_cast<MessageId>(i), m.publisher(), m.publish_time(),
        m.size_kb(), m.head(), m.allowed_delay()));
  }
  return result;
}

std::vector<Subscription> generate_subscriptions(Rng& rng,
                                                 const WorkloadConfig& config,
                                                 const Topology& topology) {
  std::vector<Subscription> subscriptions;
  subscriptions.reserve(topology.subscriber_count());

  for (std::size_t s = 0; s < topology.subscriber_count(); ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = topology.subscriber_homes[s];

    Filter filter;
    for (int a = 0; a < config.attribute_count; ++a) {
      filter.where(attribute_name(a), Op::kLt,
                   Value(rng.uniform(config.attribute_lo,
                                     config.attribute_hi)));
    }
    sub.filter = std::move(filter);

    if (config.scenario == ScenarioKind::kPsd) {
      sub.allowed_delay = kNoDeadline;  // The message's bound governs.
      sub.price = 1.0;
    } else {
      const auto& tier =
          config.ssd_tiers[rng.uniform_index(config.ssd_tiers.size())];
      sub.allowed_delay = tier.allowed_delay;
      sub.price = tier.price;
    }

    if (config.churn_fraction > 0.0) {
      const double f = std::min(config.churn_fraction, 1.0);
      const TimeMs window = config.duration * (1.0 - f);
      sub.active_from = rng.uniform(0.0, config.duration - window);
      sub.active_to = sub.active_from + window;
    }
    subscriptions.push_back(std::move(sub));
  }
  return subscriptions;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  cdf_.reserve(n == 0 ? 1 : n);
  double total = 0.0;
  for (std::size_t k = 0; k < (n == 0 ? 1 : n); ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t k = static_cast<std::size_t>(it - cdf_.begin());
  return k < cdf_.size() ? k : cdf_.size() - 1;
}

ChurnWorkload::ChurnWorkload(const ChurnWorkloadConfig& config)
    : config_(config),
      attribute_zipf_(config.attribute_pool, config.attribute_exponent),
      threshold_zipf_(config.threshold_pool, config.threshold_exponent),
      filter_rng_(0),
      message_rng_(0),
      op_rng_(0) {
  // Seed-split stream discipline (experiment/runner.cpp's idiom): each
  // stream is split from the root in a fixed order, so drawing more
  // filters never perturbs the message schedule and vice versa.
  Rng root(config_.seed);
  filter_rng_ = root.split();
  message_rng_ = root.split();
  op_rng_ = root.split();
}

Filter ChurnWorkload::next_filter() {
  const std::size_t count =
      config_.predicates_min +
      filter_rng_.uniform_index(config_.predicates_max -
                                config_.predicates_min + 1);
  const double span = config_.value_hi - config_.value_lo;
  // Threshold grid point for a sampled rank (popular ranks repeat, which
  // is what manufactures exact-duplicate filters).
  const auto threshold = [&](std::size_t rank) {
    return config_.value_lo +
           span * (static_cast<double>(rank) + 0.5) /
               static_cast<double>(threshold_zipf_.size());
  };

  Filter filter;
  std::vector<std::size_t> used;
  for (std::size_t i = 0; i < count; ++i) {
    // Distinct attributes per filter (conjuncts on one attribute would
    // just intersect); bounded resampling keeps the draw deterministic.
    std::size_t attr = attribute_zipf_.sample(filter_rng_);
    for (int tries = 0;
         tries < 8 && std::count(used.begin(), used.end(), attr) != 0;
         ++tries) {
      attr = attribute_zipf_.sample(filter_rng_);
    }
    if (std::count(used.begin(), used.end(), attr) != 0) continue;
    used.push_back(attr);
    const std::string name = churn_attribute_name(attr);

    const double cls = filter_rng_.uniform();
    const std::size_t rank = threshold_zipf_.sample(filter_rng_);
    if (cls < config_.wide_fraction) {
      // Wide single-bound comparison — the natural cover root.
      filter.where(name, filter_rng_.uniform() < 0.5 ? Op::kLe : Op::kGe,
                   Value(threshold(rank)));
    } else if (cls < config_.wide_fraction + config_.string_fraction) {
      filter.where(name, Op::kEq,
                   Value(std::string("s").append(std::to_string(rank))));
    } else if (cls < config_.wide_fraction + config_.string_fraction +
                         config_.eq_fraction) {
      filter.where(name, Op::kEq, Value(threshold(rank)));
    } else {
      // Bounded interval [t(rank), t(rank) + width], width itself from the
      // threshold stream so popular (lo, width) pairs collide.
      const std::size_t width_rank = threshold_zipf_.sample(filter_rng_);
      const double lo = threshold(rank);
      const double width =
          span * (static_cast<double>(width_rank) + 1.0) /
          static_cast<double>(threshold_zipf_.size());
      filter.where(name, Op::kGe, Value(lo));
      filter.where(name, Op::kLe, Value(std::min(lo + width,
                                                 config_.value_hi)));
    }
  }
  return filter;
}

Message ChurnWorkload::next_message() {
  std::vector<Attribute> head;
  head.reserve(config_.message_attributes);
  std::vector<std::size_t> used;
  for (std::size_t i = 0; i < config_.message_attributes; ++i) {
    std::size_t attr = attribute_zipf_.sample(message_rng_);
    for (int tries = 0;
         tries < 8 && std::count(used.begin(), used.end(), attr) != 0;
         ++tries) {
      attr = attribute_zipf_.sample(message_rng_);
    }
    if (std::count(used.begin(), used.end(), attr) != 0) continue;
    used.push_back(attr);
    const std::string name = churn_attribute_name(attr);
    // Values split between the threshold grid (hitting equality filters
    // and interval endpoints) and the continuum.
    if (message_rng_.uniform() < 0.25) {
      const std::size_t rank = threshold_zipf_.sample(message_rng_);
      const double span = config_.value_hi - config_.value_lo;
      if (message_rng_.uniform() < 0.25) {
        head.push_back(Attribute{
            name, Value(std::string("s").append(std::to_string(rank)))});
      } else {
        head.push_back(Attribute{
            name, Value(config_.value_lo +
                        span * (static_cast<double>(rank) + 0.5) /
                            static_cast<double>(threshold_zipf_.size()))});
      }
    } else {
      head.push_back(Attribute{
          name,
          Value(message_rng_.uniform(config_.value_lo, config_.value_hi))});
    }
  }
  assert(head_has_unique_attribute_names(head));
  const MessageId id = next_message_id_++;
  return Message(id, /*publisher=*/0,
                 /*publish_time=*/static_cast<TimeMs>(id),
                 /*size_kb=*/1.0, std::move(head));
}

ChurnOp ChurnWorkload::next_op(double remove_fraction,
                               std::size_t live_count) {
  ChurnOp op;
  if (live_count > 0 && op_rng_.uniform() < remove_fraction) {
    op.kind = ChurnOp::Kind::kRemove;
    op.victim = op_rng_.uniform_index(live_count);
    return op;
  }
  op.kind = ChurnOp::Kind::kAdd;
  op.filter = next_filter();
  return op;
}

}  // namespace bdps
