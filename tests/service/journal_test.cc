#include "service/journal.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"

namespace capplan::service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(JournalEventTest, SerializeParseRoundTripAllKinds) {
  const std::vector<JournalEvent> events = {
      {1000, EventKind::kTick, "", {}},
      {1001,
       EventKind::kFitOk,
       "cdbm011/cpu",
       {"HES", "ETS(A,Ad,A)[24]", "1.5", "3.2", "900", "1000", "3600", "0.95",
        "1;2;3", "0.5;1.5;2.5", "1.5;2.5;3.5"}},
      {1002, EventKind::kFitFail, "cdbm012/io", {"2", "5000", "fit blew up"}},
      {1003, EventKind::kQuarantine, "cdbm012/io", {}},
      {1004, EventKind::kRelease, "cdbm012/io", {}},
      {1005, EventKind::kAlert, "cdbm011/cpu", {"mean", "9999"}},
      {1006, EventKind::kAlertClear, "cdbm011/cpu", {}},
      {1007, EventKind::kSnapshot, "", {}},
  };
  for (const auto& event : events) {
    auto parsed = JournalEvent::Parse(event.Serialize());
    ASSERT_TRUE(parsed.ok()) << event.Serialize();
    EXPECT_EQ(parsed->epoch, event.epoch);
    EXPECT_EQ(parsed->kind, event.kind);
    EXPECT_EQ(parsed->key, event.key);
    EXPECT_EQ(parsed->fields, event.fields);
  }
}

TEST(JournalEventTest, SeparatorCharactersAreSanitized) {
  JournalEvent event{7, EventKind::kFitFail, "a|b", {"line1\nline2"}};
  const std::string line = event.Serialize();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = JournalEvent::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->key, "a/b");
  ASSERT_EQ(parsed->fields.size(), 1u);
  EXPECT_EQ(parsed->fields[0], "line1/line2");
}

TEST(JournalEventTest, MalformedLinesRejected) {
  EXPECT_FALSE(JournalEvent::Parse("").ok());
  EXPECT_FALSE(JournalEvent::Parse("v1|123").ok());           // too short
  EXPECT_FALSE(JournalEvent::Parse("v2|123|tick|").ok());     // bad version
  EXPECT_FALSE(JournalEvent::Parse("v1|xyz|tick|").ok());     // bad epoch
  EXPECT_FALSE(JournalEvent::Parse("v1|123|frobnicate|").ok());  // bad kind
}

TEST(EventJournalTest, AppendThenReadBack) {
  const std::string path = TempPath("journal_roundtrip.log");
  std::remove(path.c_str());
  {
    auto journal = EventJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append({1, EventKind::kTick, "", {}}).ok());
    ASSERT_TRUE(
        journal->Append({2, EventKind::kAlert, "k", {"mean", "77"}}).ok());
  }
  // Reopening appends rather than truncating.
  {
    auto journal = EventJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append({3, EventKind::kTick, "", {}}).ok());
  }
  auto events = ReadJournal(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].epoch, 1);
  EXPECT_EQ((*events)[1].kind, EventKind::kAlert);
  EXPECT_EQ((*events)[1].fields[1], "77");
  EXPECT_EQ((*events)[2].epoch, 3);
  std::remove(path.c_str());
}

TEST(EventJournalTest, MissingFileReadsEmpty) {
  auto events = ReadJournal(TempPath("no_such_journal.log"));
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(EventJournalTest, TornFinalLineIsTolerated) {
  const std::string path = TempPath("journal_torn.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << JournalEvent{1, EventKind::kTick, "", {}}.Serialize() << "\n";
    out << JournalEvent{2, EventKind::kTick, "", {}}.Serialize() << "\n";
    out << "v1|3|ti";  // crash mid-append: no newline, truncated kind
  }
  auto events = ReadJournal(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[1].epoch, 2);
  std::remove(path.c_str());
}

// A crash can cut a line where its prefix still parses: a fit_ok cut after
// its 11th field looks like the pre-ladder layout. Only newline-terminated
// lines count.
TEST(EventJournalTest, UnterminatedFinalLineIsTornEvenWhenItParses) {
  const std::string path = TempPath("journal_torn_parses.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << JournalEvent{1, EventKind::kTick, "", {}}.Serialize() << "\n";
    out << "v2|2|fit_ok|0|k|HES|ETS|0.5|1.5|1|2|3600|0.95|1;2|0;1|2;3";
  }
  ASSERT_TRUE(JournalEvent::Parse(
                  "v2|2|fit_ok|0|k|HES|ETS|0.5|1.5|1|2|3600|0.95|1;2|0;1|2;3")
                  .ok());
  auto events = ReadJournal(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].kind, EventKind::kTick);
  std::remove(path.c_str());
}

// The appender starts each line on a line boundary: it cuts off a torn
// tail, whether a crash left it before Open or a failed write after.
TEST(EventJournalTest, AppendCutsOffATornTail) {
  const std::string path = TempPath("journal_cut_torn.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << JournalEvent{1, EventKind::kTick, "", {}}.Serialize() << "\n";
    out << "v2|2|ti";  // crash mid-append
  }
  {
    auto journal = EventJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append({3, EventKind::kTick, "", {}}).ok());
    {
      ScopedFault torn("journal.torn", FaultPlan::FailN(1));
      EXPECT_FALSE(journal->Append({4, EventKind::kTick, "", {}}).ok());
    }
    ASSERT_TRUE(journal->Append({5, EventKind::kTick, "", {}}).ok());
  }
  std::vector<std::int64_t> epochs;
  auto count = ScanJournal(
      path, [&](JournalEvent&& event) { epochs.push_back(event.epoch); });
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 3u);
  EXPECT_EQ(epochs, (std::vector<std::int64_t>{1, 3, 5}));
  std::remove(path.c_str());
}

TEST(EventJournalTest, MalformedInteriorLineIsAnError) {
  const std::string path = TempPath("journal_garbage.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << "this is not a journal\n";
    out << JournalEvent{1, EventKind::kTick, "", {}}.Serialize() << "\n";
  }
  EXPECT_FALSE(ReadJournal(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capplan::service
