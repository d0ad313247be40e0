#include "exec/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace spothost::exec {

namespace {

void warn(const char* name, const char* value, long long fallback) {
  std::cerr << "warning: " << name << "=\"" << value
            << "\" is not a valid integer for this knob; using " << fallback
            << "\n";
}

}  // namespace

std::optional<long long> parse_int(const char* text, long long lo, long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(text, &end, 10);
  if (end != text && *end == '\0' && errno == 0 && n >= lo && n <= hi) return n;
  return std::nullopt;
}

std::optional<std::uint64_t> parse_u64(const char* text) {
  // strtoull silently wraps "-1"; reject any minus sign outright.
  if (std::strchr(text, '-') != nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text, &end, 10);
  if (end != text && *end == '\0' && errno == 0) {
    return static_cast<std::uint64_t>(n);
  }
  return std::nullopt;
}

long long env_int(const char* name, long long fallback, long long lo,
                  long long hi) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  if (const auto n = parse_int(v, lo, hi)) return *n;
  warn(name, v, fallback);
  return fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  if (const auto n = parse_u64(v)) return *n;
  warn(name, v, static_cast<long long>(fallback));
  return fallback;
}

}  // namespace spothost::exec
