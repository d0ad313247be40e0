#include "trace/csv.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace spothost::trace {
namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  std::ostringstream oss;
  oss << "trace CSV parse error at line " << line_no << ": " << why;
  throw std::runtime_error(oss.str());
}

}  // namespace

void save_csv(const PriceTrace& trace, std::ostream& out) {
  out << "time_ms,price_per_hour\n";
  // max_digits10: doubles round-trip exactly through the text format.
  out.precision(17);
  for (const auto& p : trace.points()) {
    out << p.time << ',' << p.price << '\n';
  }
  out << "end," << trace.end() << '\n';
}

void save_csv_file(const PriceTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_csv(trace, out);
}

PriceTrace load_csv(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  // A CRLF file reads like its LF twin: each line loses one trailing '\r'.
  const auto next_line = [&] {
    if (!std::getline(in, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++line_no;
    return true;
  };
  if (!next_line()) fail(1, "empty input");
  if (line != "time_ms,price_per_hour") fail(line_no, "bad header: " + line);

  PriceTrace trace;
  bool saw_end = false;
  while (next_line()) {
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) fail(line_no, "missing comma");
    const std::string lhs = line.substr(0, comma);
    const std::string rhs = line.substr(comma + 1);
    if (lhs == "end") {
      sim::SimTime end = 0;
      const auto [p, ec] = std::from_chars(rhs.data(), rhs.data() + rhs.size(), end);
      if (ec != std::errc{} || p != rhs.data() + rhs.size()) {
        fail(line_no, "bad end timestamp: " + rhs);
      }
      try {
        trace.set_end(end);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      saw_end = true;
      continue;
    }
    if (saw_end) fail(line_no, "data after end marker");
    sim::SimTime t = 0;
    {
      const auto [p, ec] = std::from_chars(lhs.data(), lhs.data() + lhs.size(), t);
      if (ec != std::errc{} || p != lhs.data() + lhs.size()) {
        fail(line_no, "bad timestamp: " + lhs);
      }
    }
    double price = 0.0;
    try {
      std::size_t consumed = 0;
      price = std::stod(rhs, &consumed);
      if (consumed != rhs.size()) fail(line_no, "trailing junk in price: " + rhs);
    } catch (const std::logic_error&) {
      fail(line_no, "bad price: " + rhs);
    }
    try {
      trace.append(t, price);
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }
  if (trace.empty()) fail(line_no, "no data rows");
  return trace;
}

PriceTrace load_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load_csv(in);
}

}  // namespace spothost::trace
