#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
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
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      whole_bytes_(other.whole_bytes_),
      torn_(other.torn_) {
  other.fd_ = -1;
}

EventJournal& EventJournal::operator=(EventJournal&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    whole_bytes_ = other.whole_bytes_;
    torn_ = other.torn_;
    other.fd_ = -1;
  }
  return *this;
}

Result<EventJournal> EventJournal::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("journal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  EventJournal journal;
  journal.path_ = path;
  journal.fd_ = fd;
  // The last whole line ends at the file's last newline. Anything after it
  // is the torn tail of a crashed append, which ReadJournal skipped and the
  // first Append cuts off.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size =
      static_cast<std::uint64_t>(std::max<std::streamoff>(in.tellg(), 0));
  std::string block;
  std::uint64_t end = size;
  while (end > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(end, 4096);
    block.resize(n);
    in.seekg(static_cast<std::streamoff>(end - n));
    if (!in.read(block.data(), static_cast<std::streamsize>(n))) {
      return Status::IoError("journal: cannot read " + path);
    }
    if (const auto nl = block.rfind('\n'); nl != std::string::npos) {
      end -= n - nl - 1;
      break;
    }
    end -= n;
  }
  journal.whole_bytes_ = end;
  journal.torn_ = end != size;
  return journal;
}

Status EventJournal::Append(const JournalEvent& event) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal: not open");
  }
  if (torn_) {
    if (::ftruncate(fd_, static_cast<off_t>(whole_bytes_)) != 0) {
      return Status::IoError("journal: cannot truncate torn tail of " +
                             path_ + ": " + std::strerror(errno));
    }
    torn_ = false;
  }
  CAPPLAN_RETURN_NOT_OK(FaultHit("journal.append"));
  const std::string line = event.Serialize() + "\n";
  // A crash mid-append (fault "journal.torn"): a prefix of the line reaches
  // the disk with no newline, and the caller sees the write fail.
  // ReadJournal treats the torn tail as absent.
  const bool tear = FaultFires("journal.torn");
  const std::size_t want = tear ? line.size() / 2 : line.size();
  std::size_t written = 0;
  while (written < want) {
    const ssize_t n = ::write(fd_, line.data() + written, want - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      torn_ = true;
      return Status::IoError("journal: short write to " + path_ + ": " +
                             std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (tear) {
    torn_ = true;
    return Status::IoError("journal: torn write to " + path_);
  }
  whole_bytes_ += line.size();
  return Status::OK();
}

void EventJournal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::uint64_t> ScanJournal(
    const std::string& path,
    const std::function<void(JournalEvent&& event)>& on_event) {
  std::ifstream in(path);
  std::uint64_t count = 0;
  if (!in.is_open()) return count;  // no journal yet: nothing to replay
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
    ++count;
    on_event(std::move(*event));
  }
  return count;
}

Result<std::vector<JournalEvent>> ReadJournal(const std::string& path) {
  std::vector<JournalEvent> events;
  CAPPLAN_RETURN_NOT_OK(ScanJournal(path, [&](JournalEvent&& event) {
                          events.push_back(std::move(event));
                        }).status());
  return events;
}

}  // namespace capplan::service
