#include "common/ini.hpp"

#include <istream>
#include <stdexcept>

namespace tagbreathe::common {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

}  // namespace

std::optional<std::string> IniSection::get(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) return std::nullopt;
  return it->second;
}

double IniSection::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("ini: key '" + key + "' is not a number: " + *v);
  }
}

long IniSection::get_int(const std::string& key, long fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const long parsed = std::stol(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("ini: key '" + key +
                             "' is not an integer: " + *v);
  }
}

std::string IniSection::get_string(const std::string& key,
                                   const std::string& fallback) const {
  return get(key).value_or(fallback);
}

IniFile IniFile::parse(std::istream& in) {
  IniFile file;
  std::string line;
  std::size_t line_no = 0;
  IniSection* current = nullptr;
  while (std::getline(in, line)) {
    ++line_no;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::runtime_error("ini: line " + std::to_string(line_no) +
                                 ": unterminated section header");
      IniSection section;
      section.name = trim(line.substr(1, line.size() - 2));
      if (section.name.empty())
        throw std::runtime_error("ini: line " + std::to_string(line_no) +
                                 ": empty section name");
      file.sections_.push_back(std::move(section));
      current = &file.sections_.back();
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("ini: line " + std::to_string(line_no) +
                               ": expected key = value");
    if (current == nullptr)
      throw std::runtime_error("ini: line " + std::to_string(line_no) +
                               ": key outside any section");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty())
      throw std::runtime_error("ini: line " + std::to_string(line_no) +
                               ": empty key");
    current->values[key] = value;
  }
  return file;
}

const IniSection* IniFile::find(const std::string& name) const {
  for (const auto& s : sections_)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const IniSection*> IniFile::find_all(
    const std::string& name) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections_)
    if (s.name == name) out.push_back(&s);
  return out;
}

}  // namespace tagbreathe::common
