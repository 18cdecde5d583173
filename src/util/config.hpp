#ifndef WDC_UTIL_CONFIG_HPP
#define WDC_UTIL_CONFIG_HPP

/// @file config.hpp
/// Key=value configuration store shared by examples and benchmark harnesses.
///
/// Sources, later wins: programmatic defaults < config file (`# comment`, `key = value`
/// lines) < command-line overrides (`key=value` tokens). Typed getters validate and
/// record every key that was read, so unknown/misspelt keys can be rejected.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wdc {

class Config {
 public:
  Config() = default;

  /// Set (or overwrite) a value.
  void set(std::string key, std::string value);

  /// Parse `key = value` lines; '#' starts a comment. Throws std::runtime_error on
  /// unreadable file or malformed line.
  void load_file(const std::string& path);

  /// Consume argv-style `key=value` tokens; tokens without '=' are returned
  /// (positional arguments for the caller).
  std::vector<std::string> load_args(int argc, const char* const* argv);

  bool has(std::string_view key) const;

  /// Typed getters with defaults. Throw std::runtime_error on parse failure.
  std::string get_string(std::string_view key, std::string def) const;
  double get_double(std::string_view key, double def) const;
  std::int64_t get_int(std::string_view key, std::int64_t def) const;
  bool get_bool(std::string_view key, bool def) const;

  /// get_int narrowed to the unsigned type T. A negative or over-range value
  /// throws std::invalid_argument naming the key, where a plain cast would
  /// wrap it into another value that then runs (clients=4294967297 as one
  /// client, cache_capacity=-1 as an unbounded cache).
  template <typename T>
  T get_count(std::string_view key, T def) const {
    const std::int64_t v = get_int(key, static_cast<std::int64_t>(def));
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (v < 0 || static_cast<std::uint64_t>(v) > kMax)
      throw std::invalid_argument("Config: key '" + std::string(key) +
                                  "' = " + std::to_string(v) +
                                  " is out of range [0, " +
                                  std::to_string(kMax) + "]");
    return static_cast<T>(v);
  }

  /// Keys present in the store that no getter has asked for (catch typos).
  std::vector<std::string> unused_keys() const;

  /// Throw std::runtime_error naming every unused key, if there is any. CLIs
  /// call it after their last getter, so a typo or a retired key fails the
  /// run instead of silently running the defaults. An unused key within edit
  /// distance 2 of a key some getter asked for is followed by
  /// `(did you mean '<key>'?)`.
  void require_all_used() const;

  /// All key/value pairs, sorted by key (for echoing the effective config).
  std::vector<std::pair<std::string, std::string>> items() const;

 private:
  std::optional<std::string> raw(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::set<std::string, std::less<>> used_;
  /// Every key a getter asked for, present or not: the known keys.
  mutable std::set<std::string, std::less<>> asked_;
};

}  // namespace wdc

#endif  // WDC_UTIL_CONFIG_HPP
