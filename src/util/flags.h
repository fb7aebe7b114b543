#ifndef FEDCROSS_UTIL_FLAGS_H_
#define FEDCROSS_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace fedcross::util {

// Minimal command-line flag parser for example and bench binaries.
// Accepts "--name=value" and "--name value"; "--help" support is the
// caller's job via Usage(). A provided flag that no getter reads is an
// error, so check ok() after the last getter:
//
//   FlagParser flags(argc, argv);
//   int rounds = flags.GetInt("rounds", 40);
//   if (!flags.ok()) { fputs(flags.error().c_str(), stderr); return 1; }
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  // Typed getters with defaults. Absent names return the default; malformed
  // values set the error state (GetDouble also rejects nan, inf and values
  // that overflow to inf).
  int GetInt(const std::string& name, int default_value);
  double GetDouble(const std::string& name, double default_value);
  std::string GetString(const std::string& name, std::string default_value);
  bool GetBool(const std::string& name, bool default_value);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  // Every parse error (bad syntax or bad typed value), one per line in the
  // order the parser met them, then one line naming the provided flags that
  // no getter has read ("unknown flag --name"). Call after the last getter:
  // a flag read later would be reported here as unknown.
  bool ok() const { return error().empty(); }
  std::string error() const;

  // Flags that were provided but never requested by a getter; useful for
  // catching typos in experiment scripts.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
  std::vector<std::string> errors_;  // in the order they were found
};

}  // namespace fedcross::util

#endif  // FEDCROSS_UTIL_FLAGS_H_
