#include "core/journal.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/chaos.hpp"
#include "obs/jsonl.hpp"

namespace ii::core {

namespace {

/// The checksum field's framing: line = <entry minus '}'> + kCrcKey +
/// <16 hex digits> + "\"}", checksummed over the plain entry. The raw
/// sequence `,"crc":"` cannot appear inside any serialized value (quotes
/// in free text are escaped to \"), so scanning for the *last* occurrence
/// is unambiguous.
constexpr std::string_view kCrcKey = ",\"crc\":\"";
constexpr std::size_t kCrcHexDigits = 16;

/// std::from_chars over all of `s`: false when it is empty, has anything
/// but the number, or is out of range for T. Never throws.
template <typename T>
bool parse_whole(std::string_view s, T* out, int base = 10) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out, base);
  return ec == std::errc{} && ptr == end;
}

std::string crc_hex(std::uint64_t h) {
  char buf[kCrcHexDigits + 1];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Strictly left-to-right field scanner over one JSON line. Each lookup
/// advances the cursor past the value it consumed, so a free-text value can
/// never satisfy a *later* key lookup (and fields serialized before it are
/// already behind the cursor).
class FieldScanner {
 public:
  explicit FieldScanner(const std::string& line) : line_{&line} {}

  std::optional<std::string> str(const std::string& key) {
    const auto value = find(key);
    if (!value) return std::nullopt;
    std::size_t i = *value;
    if (i >= line_->size() || (*line_)[i] != '"') return std::nullopt;
    ++i;
    std::string out;
    while (i < line_->size() && (*line_)[i] != '"') {
      char c = (*line_)[i];
      if (c == '\\' && i + 1 < line_->size()) {
        const char esc = (*line_)[i + 1];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'u': {
            // json_escape only emits \u00XX for control bytes.
            unsigned code = 0;
            if (i + 5 >= line_->size() ||
                !parse_whole(std::string_view{*line_}.substr(i + 2, 4),
                             &code, 16) ||
                code > 0xFF) {
              return std::nullopt;
            }
            c = static_cast<char>(code);
            i += 4;
            break;
          }
          default: c = esc;
        }
        ++i;
      }
      out += c;
      ++i;
    }
    if (i >= line_->size()) return std::nullopt;  // torn: unterminated string
    pos_ = i + 1;
    return out;
  }

  std::optional<std::int64_t> num(const std::string& key) {
    const auto value = find(key);
    if (!value) return std::nullopt;
    std::size_t i = *value;
    const std::size_t begin = i;
    if (i < line_->size() && (*line_)[i] == '-') ++i;
    while (i < line_->size() && (*line_)[i] >= '0' && (*line_)[i] <= '9') ++i;
    std::int64_t n = 0;
    if (!parse_whole(std::string_view{*line_}.substr(begin, i - begin), &n)) {
      return std::nullopt;  // empty, a lone '-', or out of range
    }
    pos_ = i;
    return n;
  }

 private:
  /// Position just past `"key":`, searching from the cursor only.
  std::optional<std::size_t> find(const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line_->find(needle, pos_);
    if (at == std::string::npos) return std::nullopt;
    return at + needle.size();
  }

  const std::string* line_;
  std::size_t pos_ = 0;
};

/// "major.minor", both plain digit runs; anything else is refused.
std::optional<hv::XenVersion> parse_version(std::string_view s) {
  const std::size_t dot = s.find('.');
  unsigned major = 0;
  unsigned minor = 0;
  constexpr unsigned kMax = std::numeric_limits<int>::max();
  if (dot == std::string_view::npos || !parse_whole(s.substr(0, dot), &major) ||
      !parse_whole(s.substr(dot + 1), &minor) || major > kMax ||
      minor > kMax) {
    return std::nullopt;
  }
  return hv::XenVersion{static_cast<int>(major), static_cast<int>(minor)};
}

}  // namespace

std::string journal_header(const CampaignConfig& config, unsigned max_attempts,
                           unsigned quarantine_after) {
  std::ostringstream os;
  os << "{\"journal\":\"ii-campaign-cells\",\"schema\":1,\"versions\":\"";
  for (std::size_t i = 0; i < config.versions.size(); ++i) {
    if (i) os << ' ';
    os << config.versions[i].to_string();
  }
  os << "\",\"modes\":\"";
  for (std::size_t i = 0; i < config.modes.size(); ++i) {
    if (i) os << ' ';
    os << to_string(config.modes[i]);
  }
  os << "\",\"logical_time\":" << (config.logical_time ? 1 : 0)
     << ",\"recovery\":" << (config.attempt_recovery ? 1 : 0)
     << ",\"max_hypercalls\":" << config.max_cell_hypercalls
     << ",\"max_steps\":" << config.max_cell_steps
     << ",\"max_attempts\":" << max_attempts
     << ",\"quarantine_after\":" << quarantine_after << "}";
  return os.str();
}

std::string journal_entry(const CellResult& cell) {
  std::ostringstream os;
  // `failure` is free text and therefore serialized last (see file header).
  // `use_case` is first but parsed first too, so the cursor is already past
  // it before any other key is looked up.
  os << "{\"use_case\":\"" << obs::json_escape(cell.use_case)
     << "\",\"version\":\"" << cell.version.to_string() << "\",\"mode\":\""
     << to_string(cell.mode) << "\",\"completed\":"
     << (cell.outcome.completed ? 1 : 0) << ",\"rc\":" << cell.outcome.rc
     << ",\"err_state\":" << (cell.err_state ? 1 : 0) << ",\"violation\":"
     << (cell.violation ? 1 : 0) << ",\"wall_us\":" << cell.wall_us
     << ",\"hypercalls\":" << cell.hypercalls << ",\"attempts\":"
     << cell.attempts << ",\"recovered\":" << (cell.recovered ? 1 : 0)
     << ",\"quarantined\":" << (cell.quarantined ? 1 : 0) << ",\"failure\":\""
     << obs::json_escape(cell.failure) << "\"}";
  return os.str();
}

std::string journal_line(const CellResult& cell) {
  const std::string entry = journal_entry(cell);
  std::string line = entry.substr(0, entry.size() - 1);  // drop '}'
  line += kCrcKey;
  line += crc_hex(fnv1a64(entry));
  line += "\"}";
  return line;
}

std::optional<CellResult> parse_journal_entry(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;  // torn write or foreign content
  }
  std::string base = line;
  if (const std::size_t at = line.rfind(kCrcKey); at != std::string::npos) {
    // Checksummed form: the framing must be exact and the digest must
    // match, else the line is corrupt (short write inside the file, bit
    // rot) rather than merely torn.
    if (line.size() != at + kCrcKey.size() + kCrcHexDigits + 2) {
      return std::nullopt;
    }
    const std::string hex = line.substr(at + kCrcKey.size(), kCrcHexDigits);
    base = line.substr(0, at) + "}";
    if (hex != crc_hex(fnv1a64(base))) return std::nullopt;
  }
  FieldScanner scan{base};
  CellResult cell;

  const auto use_case = scan.str("use_case");
  const auto version_str = scan.str("version");
  const auto mode_str = scan.str("mode");
  if (!use_case || !version_str || !mode_str) return std::nullopt;
  const auto version = parse_version(*version_str);
  if (!version) return std::nullopt;
  if (*mode_str != "exploit" && *mode_str != "injection") return std::nullopt;

  const auto completed = scan.num("completed");
  const auto rc = scan.num("rc");
  const auto err_state = scan.num("err_state");
  const auto violation = scan.num("violation");
  const auto wall_us = scan.num("wall_us");
  const auto hypercalls = scan.num("hypercalls");
  const auto attempts = scan.num("attempts");
  const auto recovered = scan.num("recovered");
  const auto quarantined = scan.num("quarantined");
  const auto failure = scan.str("failure");
  if (!completed || !rc || !err_state || !violation || !wall_us ||
      !hypercalls || !attempts || !recovered || !quarantined || !failure) {
    return std::nullopt;
  }

  cell.use_case = *use_case;
  cell.version = *version;
  cell.mode = *mode_str == "exploit" ? Mode::Exploit : Mode::Injection;
  cell.outcome.completed = *completed != 0;
  cell.outcome.rc = static_cast<long>(*rc);
  cell.err_state = *err_state != 0;
  cell.violation = *violation != 0;
  cell.wall_us = static_cast<std::uint64_t>(*wall_us);
  cell.hypercalls = static_cast<std::uint64_t>(*hypercalls);
  cell.attempts = static_cast<unsigned>(*attempts);
  cell.recovered = *recovered != 0;
  cell.quarantined = *quarantined != 0;
  cell.failure = *failure;
  return cell;
}

JournalLoad load_journal(const std::string& path,
                         const std::string& expected_header) {
  std::ifstream in{path};
  if (!in) return {};
  std::string line;
  if (!std::getline(in, line)) return {};
  if (line != expected_header) {
    throw std::runtime_error{
        "campaign journal " + path +
        " was recorded under a different campaign configuration; refusing "
        "to resume from it"};
  }
  JournalLoad load;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto cell = parse_journal_entry(line)) {
      load.cells.push_back(std::move(*cell));
    } else {
      ++load.skipped;  // torn or checksum-failed: the cell re-runs
    }
  }
  return load;
}

// ----------------------------------------------------------- JournalWriter

void JournalWriter::open(const std::string& path, const std::string& header) {
  out_.open(path, std::ios::trunc);
  if (!out_) return;
  out_ << header << '\n';
  out_.flush();
}

bool JournalWriter::append(const CellResult& cell) {
  if (!out_.is_open()) return false;
  const std::string line = journal_line(cell);
  bool ok = true;
  if (chaos_fire("journal.write_fail")) {
    ok = false;  // the line never reaches the file
  } else if (chaos_fire("journal.torn")) {
    // Short write: a prefix lands in the file. The newline keeps the
    // *next* append parseable — the damage is confined to this line,
    // which the checksum catches at load time.
    out_ << line.substr(0, line.size() / 2) << '\n';
    ok = false;
  } else {
    out_ << line << '\n';
  }
  out_.flush();  // each cell durable before the next one runs
  if (chaos_fire("journal.fsync_fail") || !out_.good()) {
    out_.clear();  // keep the stream usable; later appends may succeed
    ok = false;
  }
  if (!ok) ++errors_;
  return ok;
}

}  // namespace ii::core
