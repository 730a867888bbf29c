#include "src/workload/trace_io.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "src/common/log.hh"

namespace modm::workload {

namespace {

constexpr char kHeader[] =
    "arrival,prompt_id,topic_id,user_id,session_id,text,visual,lexical";

std::string
encodeVec(const Vec &v)
{
    std::ostringstream out;
    out.precision(9);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out << ';';
        out << v[i];
    }
    return out.str();
}

/** Where a row came from: the 1-based line of a named source. */
struct Where
{
    const char *source;
    std::size_t line;
};

/**
 * The whole of `text` as a finite Real (float or double), or fatal
 * naming the field. Leading whitespace, trailing characters, inf/nan
 * and values outside Real's range are all rejected.
 */
template <typename Real>
Real
parseReal(const std::string &text, const char *field, Where at)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    Real value = 0;
    if (!text.empty() &&
        !std::isspace(static_cast<unsigned char>(text[0]))) {
        if constexpr (std::is_same_v<Real, float>)
            value = std::strtof(begin, &end);
        else
            value = std::strtod(begin, &end);
    }
    if (end != begin + text.size() || !std::isfinite(value)) {
        fatal("%s:%zu: bad %s \"%s\" (expected a finite number)",
              at.source, at.line, field, text.c_str());
    }
    return value;
}

/** The whole of `text` as a decimal integer in [0, max], or fatal. */
std::uint64_t
parseUnsigned(const std::string &text, std::uint64_t max,
              const char *field, Where at)
{
    errno = 0;
    char *end = nullptr;
    const bool digitFirst = !text.empty() &&
        std::isdigit(static_cast<unsigned char>(text[0]));
    const unsigned long long value =
        digitFirst ? std::strtoull(text.c_str(), &end, 10) : 0;
    if (!digitFirst || end != text.c_str() + text.size() ||
        errno == ERANGE || value > max) {
        fatal("%s:%zu: bad %s \"%s\" (expected an integer in "
              "[0, %llu])",
              at.source, at.line, field, text.c_str(),
              static_cast<unsigned long long>(max));
    }
    return value;
}

/**
 * Semicolon-separated floats; an empty field is the empty vector.
 * Every component must parse whole as a finite float.
 */
Vec
decodeVec(const std::string &text, const char *field, Where at)
{
    Vec out;
    if (text.empty())
        return out;
    std::size_t start = 0;
    while (true) {
        const std::size_t stop = text.find(';', start);
        const std::string token = text.substr(
            start, stop == std::string::npos ? std::string::npos
                                             : stop - start);
        out.push_back(parseReal<float>(token, field, at));
        if (stop == std::string::npos)
            break;
        start = stop + 1;
    }
    return out;
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        if (ch == '"')
            out += "\"\"";
        else
            out += ch;
    }
    out += '"';
    return out;
}

/** Split one CSV row respecting quoted fields. */
std::vector<std::string>
splitRow(const std::string &line)
{
    std::vector<std::string> fields;
    std::string current;
    bool inQuotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (inQuotes) {
            if (ch == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                current += '"';
                ++i;
            } else if (ch == '"') {
                inQuotes = false;
            } else {
                current += ch;
            }
        } else if (ch == '"') {
            inQuotes = true;
        } else if (ch == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else {
            current += ch;
        }
    }
    fields.push_back(std::move(current));
    return fields;
}

/** Annotation marker: event lines between the header and the rows. */
constexpr char kEventPrefix[] = "#@ ";

void
writeRows(const Trace &trace, std::ostream &out)
{
    for (const auto &request : trace) {
        const auto &p = request.prompt;
        out.precision(9);
        out << request.arrival << ',' << p.id << ',' << p.topicId << ','
            << p.userId << ',' << p.sessionId << ',' << quote(p.text)
            << ',' << encodeVec(p.visualConcept) << ','
            << encodeVec(p.lexicalStyle) << '\n';
    }
}

Request
parseRow(const std::string &line, Where at)
{
    const auto fields = splitRow(line);
    if (fields.size() != 8) {
        fatal("%s:%zu: malformed trace row with %zu fields (expected 8)",
              at.source, at.line, fields.size());
    }
    constexpr auto kU32 = std::numeric_limits<std::uint32_t>::max();
    constexpr auto kU64 = std::numeric_limits<std::uint64_t>::max();
    Request request;
    request.arrival = parseReal<double>(fields[0], "arrival", at);
    request.prompt.id = parseUnsigned(fields[1], kU64, "prompt_id", at);
    request.prompt.topicId = static_cast<std::uint32_t>(
        parseUnsigned(fields[2], kU32, "topic_id", at));
    request.prompt.userId = static_cast<std::uint32_t>(
        parseUnsigned(fields[3], kU32, "user_id", at));
    request.prompt.sessionId =
        parseUnsigned(fields[4], kU64, "session_id", at);
    request.prompt.text = fields[5];
    request.prompt.visualConcept = decodeVec(fields[6], "visual", at);
    request.prompt.lexicalStyle = decodeVec(fields[7], "lexical", at);
    return request;
}

bool
isEventLine(const std::string &line)
{
    return line.compare(0, 3, kEventPrefix) == 0;
}

/**
 * Read a trace CSV. Annotation lines are collected into `events` when
 * it is non-null (and must then precede every row), skipped otherwise.
 */
Trace
readTrace(std::istream &in, const char *source,
          std::vector<std::string> *events)
{
    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        fatal("%s:1: not a MoDM trace CSV (bad header)", source);

    Trace trace;
    for (std::size_t lineNo = 2; std::getline(in, line); ++lineNo) {
        if (line.empty())
            continue;
        if (isEventLine(line)) {
            if (events == nullptr)
                continue;
            if (!trace.empty()) {
                fatal("%s:%zu: trace event annotation after the first "
                      "row",
                      source, lineNo);
            }
            events->push_back(line.substr(3));
            continue;
        }
        trace.push_back(parseRow(line, {source, lineNo}));
    }
    return trace;
}

} // namespace

void
saveTrace(const Trace &trace, std::ostream &out)
{
    out << kHeader << '\n';
    writeRows(trace, out);
}

void
saveTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file for writing: %s", path.c_str());
    saveTrace(trace, out);
    if (!out)
        fatal("error while writing trace file: %s", path.c_str());
}

Trace
loadTrace(std::istream &in)
{
    return readTrace(in, "trace", nullptr);
}

Trace
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: %s", path.c_str());
    return readTrace(in, path.c_str(), nullptr);
}

void
saveAnnotatedTrace(const AnnotatedTrace &annotated, std::ostream &out)
{
    out << kHeader << '\n';
    for (const auto &event : annotated.events) {
        MODM_ASSERT(event.find('\n') == std::string::npos,
                    "trace event annotations must be single lines");
        out << kEventPrefix << event << '\n';
    }
    writeRows(annotated.trace, out);
}

void
saveAnnotatedTraceFile(const AnnotatedTrace &annotated,
                       const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file for writing: %s", path.c_str());
    saveAnnotatedTrace(annotated, out);
    if (!out)
        fatal("error while writing trace file: %s", path.c_str());
}

AnnotatedTrace
loadAnnotatedTrace(std::istream &in)
{
    AnnotatedTrace annotated;
    annotated.trace = readTrace(in, "trace", &annotated.events);
    return annotated;
}

AnnotatedTrace
loadAnnotatedTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: %s", path.c_str());
    AnnotatedTrace annotated;
    annotated.trace = readTrace(in, path.c_str(), &annotated.events);
    return annotated;
}

} // namespace modm::workload
