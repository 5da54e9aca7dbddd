#include "service/journal.h"

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/fault.h"
#include "common/number_format.h"

namespace capplan::service {

namespace {

constexpr char kSeparator = '|';
constexpr const char* kVersionV1 = "v1";  // epoch|kind|key|fields...
constexpr const char* kVersion = "v2";    // epoch|kind|span|key|fields...

// Line spellings of the event kinds, in EventKind order.
constexpr const char* kKindNames[] = {
    "tick",        "fit_ok",   "fit_fail", "quarantine", "release",
    "alert",       "alert_clear", "snapshot", "quality",  "promotion",
    "rollback"};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(EventKind::kRollback) + 1);

std::string Sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == kSeparator || c == '\n' || c == '\r') c = '/';
  }
  return out;
}

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t pos = line.find(kSeparator, begin);
    if (pos == std::string::npos) {
      parts.push_back(line.substr(begin));
      return parts;
    }
    parts.push_back(line.substr(begin, pos - begin));
    begin = pos + 1;
  }
}

}  // namespace

const char* EventKindName(EventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i] : "?";
}

Result<EventKind> ParseEventKind(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) return static_cast<EventKind>(i);
  }
  return Status::InvalidArgument("journal: unknown event kind '" + name + "'");
}

std::string JournalEvent::Serialize() const {
  // std::to_string, not a stream: a stream would group the integers' digits
  // the way the global C++ locale says, and Parse would misread them.
  std::string out = std::string(kVersion) + kSeparator +
                    std::to_string(epoch) + kSeparator + EventKindName(kind) +
                    kSeparator + std::to_string(span_id) + kSeparator +
                    Sanitize(key);
  for (const auto& f : fields) {
    out += kSeparator;
    out += Sanitize(f);
  }
  return out;
}

Result<JournalEvent> JournalEvent::Parse(const std::string& line) {
  std::vector<std::string> parts = SplitLine(line);
  const bool v1 = !parts.empty() && parts[0] == kVersionV1;
  const bool v2 = !parts.empty() && parts[0] == kVersion;
  if ((!v1 && !v2) || parts.size() < (v2 ? 5u : 4u)) {
    return Status::InvalidArgument("journal: malformed line");
  }
  JournalEvent event;
  if (!ParseInt(parts[1], &event.epoch)) {
    return Status::InvalidArgument("journal: bad epoch in line");
  }
  CAPPLAN_ASSIGN_OR_RETURN(event.kind, ParseEventKind(parts[2]));
  std::size_t key_at = 3;
  if (v2) {
    if (!ParseInt(parts[3], &event.span_id)) {
      return Status::InvalidArgument("journal: bad span id in line");
    }
    key_at = 4;
  }
  event.key = parts[key_at];
  event.fields.assign(parts.begin() + static_cast<std::ptrdiff_t>(key_at) + 1,
                      parts.end());
  return event;
}

EventJournal::~EventJournal() { Close(); }

EventJournal::EventJournal(EventJournal&& other) noexcept
    : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

EventJournal& EventJournal::operator=(EventJournal&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

Result<EventJournal> EventJournal::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("journal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  EventJournal journal;
  journal.path_ = path;
  journal.file_ = f;
  return journal;
}

Status EventJournal::Append(const JournalEvent& event) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal: not open");
  }
  CAPPLAN_RETURN_NOT_OK(FaultHit("journal.append"));
  const std::string line = event.Serialize() + "\n";
  if (FaultFires("journal.torn")) {
    // A crash mid-append: a prefix of the line reaches the disk with no
    // newline, and the caller sees the write fail. ReadJournal must treat
    // the torn tail as absent.
    std::fwrite(line.data(), 1, line.size() / 2, file_);
    std::fflush(file_);
    return Status::IoError("journal: torn write to " + path_);
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::IoError("journal: short write to " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("journal: flush failed for " + path_);
  }
  return Status::OK();
}

void EventJournal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<std::vector<JournalEvent>> ReadJournal(const std::string& path) {
  std::ifstream in(path);
  std::vector<JournalEvent> events;
  if (!in.is_open()) return events;  // no journal yet: nothing to replay
  std::string line;
  bool saw_garbage = false;
  while (std::getline(in, line)) {
    // Every append ends its line with a newline. A final line without one
    // is the torn tail of a crash, even when its prefix happens to parse
    // (a cut fit_ok line can look like an older, shorter layout).
    if (in.eof()) break;
    if (line.empty()) continue;
    auto event = JournalEvent::Parse(line);
    if (!event.ok()) {
      // Only the torn tail of a crashed append may be unparseable; malformed
      // lines in the middle mean the file is not a journal.
      saw_garbage = true;
      continue;
    }
    if (saw_garbage) {
      return Status::IoError("journal: malformed interior line in " + path);
    }
    events.push_back(std::move(*event));
  }
  return events;
}

}  // namespace capplan::service
