// Validated integer parsing for the runtime knobs (SPOTHOST_RUNS,
// SPOTHOST_SEED, SPOTHOST_THREADS, ...) and the example CLIs' integer flags.
//
// One whole-string, range-checked parse backs both. Trailing junk, sign
// errors and out-of-range values — everything atoi/strtol would
// half-accept — are rejected. Env knobs share one policy on top of it: an
// unset variable silently yields the fallback; a set-but-garbage value warns
// once on stderr and yields the fallback, so a typo degrades a run instead
// of silently changing its size. CLIs turn a rejection into a usage error
// naming the flag.
#pragma once

#include <cstdint>
#include <optional>

namespace spothost::exec {

/// `text` parsed as a whole decimal integer in [lo, hi]; nullopt otherwise.
std::optional<long long> parse_int(const char* text, long long lo, long long hi);

/// `text` parsed as a whole non-negative decimal integer (full uint64
/// range); nullopt otherwise, including for any minus sign.
std::optional<std::uint64_t> parse_u64(const char* text);

/// `name` parsed as a whole decimal integer in [lo, hi]. Unset -> fallback;
/// set but invalid -> warning on stderr + fallback.
long long env_int(const char* name, long long fallback, long long lo,
                  long long hi);

/// `name` parsed as a whole non-negative decimal integer (full uint64
/// range). Unset -> fallback; set but invalid -> warning + fallback.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace spothost::exec
