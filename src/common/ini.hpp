// Minimal INI-style configuration parser.
//
// Scenario files for the CLI tool (`examples/tagbreathe_sim`) use this:
// `[section]` headers, `key = value` pairs, `#`/`;` comments, repeated
// section names allowed (e.g. one `[user]` per subject). No external
// dependencies, strict errors with line numbers.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tagbreathe::common {

struct IniSection {
  std::string name;
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) > 0; }

  std::optional<std::string> get(const std::string& key) const;
  /// Typed getters: return the default when the key is absent; throw
  /// std::runtime_error when present but unparseable.
  double get_double(const std::string& key, double fallback) const;
  long get_int(const std::string& key, long fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
};

class IniFile {
 public:
  /// Parses from a stream. Throws std::runtime_error with a line number
  /// on syntax errors.
  static IniFile parse(std::istream& in);

  /// All sections in file order (section names can repeat).
  const std::vector<IniSection>& sections() const noexcept {
    return sections_;
  }

  /// First section with the given name, or null.
  const IniSection* find(const std::string& name) const;

  /// All sections with the given name, in order.
  std::vector<const IniSection*> find_all(const std::string& name) const;

 private:
  std::vector<IniSection> sections_;
};

}  // namespace tagbreathe::common
