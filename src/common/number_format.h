#ifndef CAPPLAN_COMMON_NUMBER_FORMAT_H_
#define CAPPLAN_COMMON_NUMBER_FORMAT_H_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>

namespace capplan {

// The two double formats every text writer uses, and the one strict parser
// every reader uses, built on std::to_chars / std::from_chars so none of
// them depends on the C or C++ locale. Each writer writes exactly the bytes
// of the printf recipe it names (glibc spellings).
//
// - JSON bodies and Prometheus text: AppendShortestDouble.
// - Journal lines, snapshots, the model registry and series CSV:
//   AppendDouble17, whose 17 significant digits parse back to the same
//   double.

// Appends integral |v| < 1e15 as "%.0f" ("10", not "1e+01"; -0.0 as "-0"),
// otherwise the first "%.{p}g" for p = 1..16 that parses back to `v`, else
// "%.17g". Callers spell NaN and infinities in their own format first.
inline void AppendShortestDouble(std::string* out, double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    const auto r =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 0);
    out->append(buf, r.ptr);
    return;
  }
  // "%.{p}g" rounds to p significant digits, so no p below the digit count
  // of the shortest round-trip form can parse back to `v`: the search
  // starts there. Plain to_chars(v) is not the answer itself, because its
  // fixed/scientific choice differs from %g's ("1e-04" vs "0.0001").
  auto r = std::to_chars(buf, buf + sizeof(buf), v,
                         std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p != r.ptr && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  for (int prec = digits > 0 ? digits : 1; prec < 17; ++prec) {
    r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                      prec);
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back == v) {
      out->append(buf, r.ptr);
      return;
    }
  }
  r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

// Appends `v` exactly as "%.17g" ("inf", "-inf", "nan", "-nan" included).
inline void AppendDouble17(std::string* out, double v) {
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

// The read side of both writers: all of `text` or nothing ("1.5x", "",
// " 1", "+1" and values that do not fit the type are rejected; `*out` is
// written only on success). ParseDouble reads every double either writer
// emits, subnormals, "inf" and "-nan" included.
inline bool ParseDouble(std::string_view text, double* out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto r = std::from_chars(text.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = v;
  return true;
}

// Base 10, any integer type: ParseInt(text, &epoch) reads an int64.
template <typename Int>
inline bool ParseInt(std::string_view text, Int* out) {
  Int v = 0;
  const char* end = text.data() + text.size();
  const auto r = std::from_chars(text.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace capplan

#endif  // CAPPLAN_COMMON_NUMBER_FORMAT_H_
