#ifndef CAPPLAN_REPO_CSV_H_
#define CAPPLAN_REPO_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "tsa/timeseries.h"

namespace capplan::repo {

// Minimal CSV support for persisting traces and results. Values are written
// with full double precision; NaN round-trips as the literal "nan".

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// Appends one record as WriteCsv writes it: the fields joined by commas,
// each quoted when it holds a comma, quote or newline, then '\n'.
void AppendCsvRecord(std::string* out, const std::vector<std::string>& fields);

// Writes records already encoded by AppendCsvRecord to `path`, overwriting,
// in order. Fault site "csv.write", once per file.
Status WriteCsvRecords(const std::string& path,
                       const std::vector<std::string_view>& records);

// Writes `table` to `path`, overwriting: the header (when not empty), then
// every row, each encoded by AppendCsvRecord.
Status WriteCsv(const std::string& path, const CsvTable& table);

// Reads a CSV written by WriteCsv (handles quoted fields) one record at a
// time: the first record fills `*header`, and `on_row` gets each later one
// as it is read. Returns the first error `on_row` returns.
Status ScanCsv(const std::string& path, std::vector<std::string>* header,
               const std::function<Status(std::vector<std::string>&& row)>&
                   on_row);

// ScanCsv into a table.
Result<CsvTable> ReadCsv(const std::string& path);

// TimeSeries round-trip: columns epoch,value plus metadata in the header
// comment line "# name,start_epoch,frequency".
Status WriteSeriesCsv(const std::string& path, const tsa::TimeSeries& series);
Result<tsa::TimeSeries> ReadSeriesCsv(const std::string& path);

}  // namespace capplan::repo

#endif  // CAPPLAN_REPO_CSV_H_
