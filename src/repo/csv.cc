#include "repo/csv.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "common/number_format.h"

namespace capplan::repo {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n") != std::string::npos;
}

void AppendField(std::string* out, const std::string& field) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Splits one CSV record (already newline-free except inside quotes is not
// supported for simplicity; WriteCsv never emits embedded newlines from this
// library's own data).
std::vector<std::string> SplitRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "nan";
  std::string out;
  AppendDouble17(&out, v);
  return out;
}

}  // namespace

void AppendCsvRecord(std::string* out,
                     const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out->push_back(',');
    AppendField(out, fields[i]);
  }
  out->push_back('\n');
}

Status WriteCsvRecords(const std::string& path,
                       const std::vector<std::string_view>& records) {
  CAPPLAN_RETURN_NOT_OK(FaultHit("csv.write"));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("WriteCsv: cannot open " + path);
  }
  for (std::string_view record : records) {
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
  }
  out.flush();
  if (!out) {
    return Status::IoError("WriteCsv: write failed for " + path);
  }
  return Status::OK();
}

Status WriteCsv(const std::string& path, const CsvTable& table) {
  std::string body;
  if (!table.header.empty()) AppendCsvRecord(&body, table.header);
  for (const auto& row : table.rows) AppendCsvRecord(&body, row);
  return WriteCsvRecords(path, {body});
}

Status ScanCsv(const std::string& path, std::vector<std::string>* header,
               const std::function<Status(std::vector<std::string>&& row)>&
                   on_row) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("ReadCsv: cannot open " + path);
  }
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') continue;  // comment lines handled by callers
    if (first) {
      *header = SplitRecord(line);
      first = false;
    } else {
      CAPPLAN_RETURN_NOT_OK(on_row(SplitRecord(line)));
    }
  }
  return Status::OK();
}

Result<CsvTable> ReadCsv(const std::string& path) {
  CsvTable table;
  CAPPLAN_RETURN_NOT_OK(
      ScanCsv(path, &table.header, [&](std::vector<std::string>&& row) {
        table.rows.push_back(std::move(row));
        return Status::OK();
      }));
  return table;
}

Status WriteSeriesCsv(const std::string& path,
                      const tsa::TimeSeries& series) {
  CAPPLAN_RETURN_NOT_OK(FaultHit("csv.write_series"));
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("WriteSeriesCsv: cannot open " + path);
  }
  // Integers go through std::to_string: the stream would group their
  // digits the way the global C++ locale says.
  std::string name = "# ";
  AppendField(&name, series.name());
  out << name << ","
      << std::to_string(series.start_epoch()) << ","
      << std::to_string(static_cast<int>(series.frequency())) << "\n";
  out << "epoch,value\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    out << std::to_string(series.TimestampAt(i)) << ","
        << FormatDouble(series[i]) << "\n";
  }
  out.flush();
  if (!out) {
    return Status::IoError("WriteSeriesCsv: write failed for " + path);
  }
  return Status::OK();
}

Result<tsa::TimeSeries> ReadSeriesCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("ReadSeriesCsv: cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line) || line.size() < 3 || line[0] != '#') {
    return Status::IoError("ReadSeriesCsv: missing metadata line");
  }
  const std::vector<std::string> meta = SplitRecord(line.substr(2));
  if (meta.size() != 3) {
    return Status::IoError("ReadSeriesCsv: malformed metadata line");
  }
  const std::string name = meta[0];
  std::int64_t start_epoch = 0;
  int freq_int = 0;
  if (!ParseInt(meta[1], &start_epoch) || !ParseInt(meta[2], &freq_int) ||
      freq_int < 0 || freq_int > static_cast<int>(tsa::Frequency::kMonthly)) {
    return Status::IoError("ReadSeriesCsv: malformed metadata line");
  }
  // Skip the column header.
  if (!std::getline(in, line)) {
    return Status::IoError("ReadSeriesCsv: truncated file");
  }
  std::vector<double> values;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitRecord(line);
    double value = 0.0;
    if (fields.size() != 2 || !ParseDouble(fields[1], &value)) {
      return Status::IoError("ReadSeriesCsv: malformed data row");
    }
    values.push_back(value);
  }
  return tsa::TimeSeries(name, start_epoch,
                         static_cast<tsa::Frequency>(freq_int),
                         std::move(values));
}

}  // namespace capplan::repo
