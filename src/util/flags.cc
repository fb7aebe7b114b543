#include "util/flags.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace fedcross::util {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      errors_.push_back("unexpected positional argument: " + arg);
      return;
    }
    std::string body = arg.substr(2);
    std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare boolean flag
    }
  }
}

int FlagParser::GetInt(const std::string& name, int default_value) {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    errors_.push_back("flag --" + name + " expects an integer, got '" + text +
                      "'");
    return default_value;
  }
  // strtoll saturates on overflow, so this also catches what long long
  // cannot hold.
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    errors_.push_back("flag --" + name + " is out of int range: '" + text +
                      "'");
    return default_value;
  }
  return static_cast<int>(value);
}

double FlagParser::GetDouble(const std::string& name, double default_value) {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  double value = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0' || !std::isfinite(value)) {
    errors_.push_back("flag --" + name + " expects a finite number, got '" +
                      it->second + "'");
    return default_value;
  }
  return value;
}

std::string FlagParser::GetString(const std::string& name,
                                  std::string default_value) {
  used_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  errors_.push_back("flag --" + name + " expects a boolean, got '" + value +
                    "'");
  return default_value;
}

std::string FlagParser::error() const {
  std::string message;
  for (const std::string& error : errors_) {
    message += (message.empty() ? "" : "\n") + error;
  }
  std::string unknown;
  for (const std::string& name : UnusedFlags()) {
    unknown += (unknown.empty() ? "unknown flag --" : ", --") + name;
  }
  if (!unknown.empty()) message += (message.empty() ? "" : "\n") + unknown;
  return message;
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, _] : values_) {
    if (used_.count(name) == 0) unused.push_back(name);
  }
  return unused;
}

}  // namespace fedcross::util
