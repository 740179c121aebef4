// A minimal command-line flag parser for the lrb tools: accepts
// "--key value" and "--key=value" pairs plus bare positional arguments.
// Unknown keys are collected so tools can reject typos explicitly.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lrb {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  /// The integer value of --key (or `fallback` when absent), checked
  /// against [lo, hi] on the signed value, so a count can then be cast to
  /// an unsigned type without wrapping ("--n -1" would otherwise become
  /// ~2^64). Out of range, it records "--key must be in [lo, hi]" in
  /// *error unless an earlier flag already did, and returns the value
  /// clamped into range. There is no unchecked integer getter.
  [[nodiscard]] std::int64_t get_int_in(const std::string& key,
                                        std::int64_t fallback,
                                        std::int64_t lo, std::int64_t hi,
                                        std::string* error) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Keys that were parsed; lets a tool verify every flag was meaningful.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lrb
