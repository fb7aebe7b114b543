// Flat JSON writer for the driver's measurement record.
#ifndef FCBENCH_JSON_OUT_H_
#define FCBENCH_JSON_OUT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fcbench {

inline std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// All 17 significant digits; non-finite values become null.
inline std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.push_back(Quote(key) + ":" + json);
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Int(const std::string& key, std::int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Text(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& values) {
    std::string json = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i > 0 ? "," : "") + Number(values[i]);
    }
    return Raw(key, json + "]");
  }
  JsonObject& Texts(const std::string& key,
                    const std::vector<std::string>& values) {
    std::string json = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i > 0 ? "," : "") + Quote(values[i]);
    }
    return Raw(key, json + "]");
  }
  std::string Str() const {
    std::string json = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      json += (i > 0 ? "," : "") + fields_[i];
    }
    return json + "}";
  }

 private:
  std::vector<std::string> fields_;
};

}  // namespace fcbench

#endif  // FCBENCH_JSON_OUT_H_
