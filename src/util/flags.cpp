#include "dsrt/util/flags.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsrt::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

void Flags::require_known(const std::vector<std::string>& accepted) const {
  for (const auto& [name, value] : values_) {
    if (std::find(accepted.begin(), accepted.end(), name) != accepted.end())
      continue;
    std::string message = "unknown flag --" + name + " (accepted:";
    for (const std::string& known : accepted) message += " --" + known;
    throw std::invalid_argument(message + ")");
  }
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v)
    throw std::invalid_argument("flag --" + name + ": expected number, got '" +
                                it->second + "'");
  return *v;
}

long Flags::get(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_long(it->second);
  if (!v)
    throw std::invalid_argument("flag --" + name +
                                ": expected integer, got '" + it->second +
                                "'");
  return *v;
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes" || it->second == "on")
    return true;
  if (it->second == "0" || it->second == "false" || it->second == "no" ||
      it->second == "off")
    return false;
  throw std::invalid_argument("flag --" + name + ": expected bool, got '" +
                              it->second + "'");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<long> parse_long(std::string_view text) {
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const long v = std::stol(std::string(text), &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace dsrt::util
