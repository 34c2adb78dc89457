#ifndef ENLD_EXAMPLES_FLAGS_H_
#define ENLD_EXAMPLES_FLAGS_H_

// The examples' command-line flags: `--name=value` lookup and checked
// parsers for counts, rates, seconds and ports. A value that does not
// parse whole as its form prints the flag and the form it accepts, then
// exits 2 before any work starts, so a typo never runs another experiment
// than the one asked for. An empty value (`--name=`) counts as absent.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace enld {
namespace flags {

/// The value of `--name=` in argv, or `fallback`.
inline std::string Value(int argc, char** argv, const std::string& name,
                         const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// True when the bare flag `--name` is present.
inline bool Has(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Prints the bad value of `flag` and the form it accepts, then exits 2.
[[noreturn]] inline void Reject(const std::string& flag,
                                const std::string& value,
                                const std::string& accepted) {
  std::fprintf(stderr, "%s=\"%s\" is not valid: expected %s\n", flag.c_str(),
               value.c_str(), accepted.c_str());
  std::exit(2);
}

/// `text` whole as a decimal integer in [min, max]: digits only.
inline bool ParseInteger(const std::string& text, uint64_t min, uint64_t max,
                         uint64_t* out) {
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || last != end || value < min ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// `--name=<n>`: an integer in [min, max]; `fallback` when absent.
inline uint64_t Integer(int argc, char** argv, const std::string& name,
                        uint64_t fallback, uint64_t min = 1,
                        uint64_t max = std::numeric_limits<uint64_t>::max()) {
  const std::string text = Value(argc, argv, name);
  uint64_t value = fallback;
  if (!text.empty() && !ParseInteger(text, min, max, &value)) {
    Reject("--" + name, text,
           max == std::numeric_limits<uint64_t>::max()
               ? "an integer >= " + std::to_string(min)
               : "an integer in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
  }
  return value;
}

/// `--name=<port>`: a TCP port, 0 for "any"; `fallback` when absent.
inline int Port(int argc, char** argv, const std::string& name,
                int fallback) {
  return static_cast<int>(Integer(argc, argv, name, fallback, 0, 65535));
}

/// A finite number in [min, max), or `text` is rejected as `flag`.
inline double Number(const std::string& flag, const std::string& text,
                     double min, double max, const char* accepted) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < min ||
      value >= max) {
    Reject(flag, text, accepted);
  }
  return value;
}

/// `--name=<rate>`: a fraction in [0, 1); `fallback` when absent.
inline double Rate(int argc, char** argv, const std::string& name,
                   double fallback) {
  const std::string text = Value(argc, argv, name);
  return text.empty() ? fallback
                      : Number("--" + name, text, 0.0, 1.0,
                               "a rate in [0, 1)");
}

/// `--name=<s>`: seconds, a finite number >= 0; `fallback` when absent.
inline double Seconds(int argc, char** argv, const std::string& name,
                      double fallback) {
  const std::string text = Value(argc, argv, name);
  return text.empty() ? fallback
                      : Number("--" + name, text, 0.0, HUGE_VAL,
                               "seconds, a number >= 0");
}

/// The leading `[rate]` argument (one not starting with "--") of
/// `program [rate] [--flags]`, named `name` in the usage; `fallback`
/// when absent.
inline double LeadingRate(int argc, char** argv, const char* name,
                          double fallback) {
  if (argc < 2 || std::strncmp(argv[1], "--", 2) == 0) return fallback;
  return Number(name, argv[1], 0.0, 1.0, "a rate in [0, 1)");
}

}  // namespace flags
}  // namespace enld

#endif  // ENLD_EXAMPLES_FLAGS_H_
