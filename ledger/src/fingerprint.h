// Host fingerprint stamped on every result: where and how a number was
// measured (cores, CPU, compiler, build flags, source revision, seed).
#pragma once

#include <string>

#include "common.h"

namespace ledger {

std::string fingerprint_json(const Options& options);

}  // namespace ledger
