#include "util/flags.h"

#include <algorithm>
#include <cstdlib>

namespace pubsub {

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::string Flags::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw FlagError("Flags: bad integer for --" + key + ": '" +
                    it->second + "'");
  }
}

std::size_t Flags::get_count(const std::string& key, std::size_t def) const {
  if (!has(key)) return def;
  const std::int64_t v = get_int(key, 0);
  if (v < 0)
    throw FlagError("Flags: negative count for --" + key + ": '" +
                    values_.at(key) + "'");
  return static_cast<std::size_t>(v);
}

double Flags::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw FlagError("Flags: bad number for --" + key + ": '" +
                    it->second + "'");
  }
}

bool Flags::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw FlagError("Flags: bad boolean for --" + key + ": " + v);
}

std::vector<std::string> Flags::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end())
      unknown.push_back(key);
  }
  return unknown;  // values_ is ordered, so this is sorted
}

void Flags::require_known(const std::vector<std::string>& known) const {
  const std::vector<std::string> unknown = unknown_flags(known);
  if (unknown.empty()) return;
  std::string msg = "Flags: unknown flag";
  if (unknown.size() > 1) msg += 's';
  for (const auto& key : unknown) msg += " --" + key;
  throw FlagError(msg);
}

}  // namespace pubsub
