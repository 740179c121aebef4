#include "util/flags.h"

#include <algorithm>
#include <cstdlib>

namespace lrb {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> Flags::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(const std::string& key,
                          const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Flags::get_int_in(const std::string& key, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi,
                              std::string* error) const {
  const auto text = get(key);
  const std::int64_t value =
      text ? std::strtoll(text->c_str(), nullptr, 10) : fallback;
  if ((value < lo || value > hi) && error->empty()) {
    *error = "--" + key + " must be in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
  }
  return std::clamp(value, lo, hi);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

bool Flags::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::vector<std::string> Flags::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

}  // namespace lrb
