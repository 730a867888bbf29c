/**
 * @file
 * Unit tests for trace serialization: round-trip exactness (including
 * quoted text with commas/quotes), annotated traces carrying scenario
 * event timelines (faults, mid-trace knob changes), and rejection of
 * malformed input — every numeric field must parse whole and in range,
 * with the offending line named in the diagnostic.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/workload/scenario.hh"
#include "src/workload/trace_io.hh"

namespace modm::workload {
namespace {

TEST(TraceIo, RoundTripPreservesEverything)
{
    auto gen = makeDiffusionDB(42);
    PoissonArrivals arrivals(10.0);
    Rng rng(7);
    const auto original = buildTrace(*gen, arrivals, 100, rng);

    std::stringstream buffer;
    saveTrace(original, buffer);
    const auto loaded = loadTrace(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto &a = original[i];
        const auto &b = loaded[i];
        EXPECT_NEAR(a.arrival, b.arrival, 1e-6);
        EXPECT_EQ(a.prompt.id, b.prompt.id);
        EXPECT_EQ(a.prompt.topicId, b.prompt.topicId);
        EXPECT_EQ(a.prompt.userId, b.prompt.userId);
        EXPECT_EQ(a.prompt.sessionId, b.prompt.sessionId);
        EXPECT_EQ(a.prompt.text, b.prompt.text);
        ASSERT_EQ(a.prompt.visualConcept.size(),
                  b.prompt.visualConcept.size());
        for (std::size_t d = 0; d < a.prompt.visualConcept.size(); ++d)
            EXPECT_NEAR(a.prompt.visualConcept[d],
                        b.prompt.visualConcept[d], 1e-6);
    }
}

TEST(TraceIo, QuotedTextWithCommasAndQuotes)
{
    Trace trace(1);
    trace[0].arrival = 1.5;
    trace[0].prompt.id = 7;
    trace[0].prompt.text = "a \"red\" dragon, highly detailed";
    trace[0].prompt.visualConcept = {0.5f, -0.5f};
    trace[0].prompt.lexicalStyle = {1.0f, 0.0f};

    std::stringstream buffer;
    saveTrace(trace, buffer);
    const auto loaded = loadTrace(buffer);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].prompt.text, "a \"red\" dragon, highly detailed");
}

TEST(TraceIo, AnnotatedRoundTripCarriesFaultAndKnobEvents)
{
    // A scenario with scripted faults and a mid-trace knob change,
    // frozen as an annotated trace: the rows round-trip exactly and
    // the event timeline survives in canonical op spelling.
    std::istringstream scn("scenario frozen\n"
                           "warm 0\n"
                           "requests 40\n"
                           "rate 12\n"
                           "workers 6\n"
                           "nodes 3\n"
                           "\n"
                           "at 60 kill 1\n"
                           "at 90 set cache 5000\n"
                           "at 240 rejoin 1\n");
    const auto scenario = parseScenarioOrDie(scn, "frozen.scn");

    AnnotatedTrace annotated;
    annotated.trace = buildScenarioWorkload(scenario).trace;
    annotated.events = scenarioOpLines(scenario);
    ASSERT_EQ(annotated.events.size(), 3u);

    std::stringstream buffer;
    saveAnnotatedTrace(annotated, buffer);
    const auto loaded = loadAnnotatedTrace(buffer);

    EXPECT_EQ(loaded.events,
              (std::vector<std::string>{"at 60 kill 1",
                                        "at 90 set cache 5000",
                                        "at 240 rejoin 1"}));
    ASSERT_EQ(loaded.trace.size(), annotated.trace.size());
    for (std::size_t i = 0; i < annotated.trace.size(); ++i) {
        EXPECT_NEAR(loaded.trace[i].arrival,
                    annotated.trace[i].arrival, 1e-6);
        EXPECT_EQ(loaded.trace[i].prompt.id,
                  annotated.trace[i].prompt.id);
        EXPECT_EQ(loaded.trace[i].prompt.text,
                  annotated.trace[i].prompt.text);
    }
}

TEST(TraceIo, AnnotatedTraceLoadsAsPlainTrace)
{
    AnnotatedTrace annotated;
    annotated.events = {"at 10 drain 2", "at 20 set mode quality"};
    Request request;
    request.arrival = 2.5;
    request.prompt.id = 11;
    request.prompt.text = "plain replay";
    request.prompt.visualConcept = {0.25f};
    request.prompt.lexicalStyle = {0.75f};
    annotated.trace.push_back(request);

    std::stringstream buffer;
    saveAnnotatedTrace(annotated, buffer);
    const auto plain = loadTrace(buffer);
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_EQ(plain[0].prompt.text, "plain replay");
}

TEST(TraceIo, UnannotatedTraceLoadsWithEmptyEventList)
{
    Trace trace(1);
    trace[0].prompt.text = "no events";
    std::stringstream buffer;
    saveTrace(trace, buffer);
    const auto loaded = loadAnnotatedTrace(buffer);
    EXPECT_TRUE(loaded.events.empty());
    ASSERT_EQ(loaded.trace.size(), 1u);
    EXPECT_EQ(loaded.trace[0].prompt.text, "no events");
}

TEST(TraceIoDeath, RejectsEventAnnotationAfterRows)
{
    std::stringstream buffer;
    buffer << "arrival,prompt_id,topic_id,user_id,session_id,text,"
              "visual,lexical\n"
              "1.0,2,3,4,5,\"x\",0.5,0.5\n"
              "#@ at 10 kill 1\n";
    EXPECT_DEATH(loadAnnotatedTrace(buffer),
                 "annotation after the first row");
}

TEST(TraceIoDeath, RejectsForeignCsv)
{
    std::stringstream buffer("time,value\n1,2\n");
    EXPECT_DEATH(loadTrace(buffer), "bad header");
}

TEST(TraceIoDeath, RejectsTruncatedRow)
{
    std::stringstream buffer;
    buffer << "arrival,prompt_id,topic_id,user_id,session_id,text,"
              "visual,lexical\n1.0,2,3\n";
    EXPECT_DEATH(loadTrace(buffer), "malformed trace row");
}

/** A header plus one row built from the given fields. */
std::string
oneRowTrace(const std::string &arrival, const std::string &topic,
            const std::string &visual)
{
    return "arrival,prompt_id,topic_id,user_id,session_id,text,"
           "visual,lexical\n" +
        arrival + ",2," + topic + ",4,5,\"x\"," + visual + ",0.5\n";
}

TEST(TraceIo, StrictParserAcceptsTheWrittenForm)
{
    std::stringstream buffer(oneRowTrace("1.5", "4294967295", "0.25;-1e-3"));
    const auto loaded = loadTrace(buffer);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].arrival, 1.5);
    EXPECT_EQ(loaded[0].prompt.topicId, 4294967295u);
    EXPECT_EQ(loaded[0].prompt.visualConcept, (Vec{0.25f, -1e-3f}));
}

TEST(TraceIoDeath, RejectsMalformedNumericFields)
{
    // Each field must parse whole and in range; before the strict
    // parser these read as 1.5, wrapped to topic 1, or escaped as an
    // uncaught std::invalid_argument.
    struct Case
    {
        const char *arrival;
        const char *topic;
        const char *visual;
        const char *diagnostic;
    };
    const Case cases[] = {
        {"1.5x", "3", "0.5", "trace:2: bad arrival \"1.5x\""},
        {"abc", "3", "0.5", "trace:2: bad arrival \"abc\""},
        {"inf", "3", "0.5", "trace:2: bad arrival \"inf\""},
        {"1.5", "4294967297", "0.5", "trace:2: bad topic_id \"4294967297\""},
        {"1.5", "-1", "0.5", "trace:2: bad topic_id \"-1\""},
        {"1.5", "3", "0.5;abc", "trace:2: bad visual \"abc\""},
        {"1.5", "3", "0.5;1e39", "trace:2: bad visual \"1e39\""},
    };
    for (const Case &c : cases) {
        std::stringstream buffer(oneRowTrace(c.arrival, c.topic, c.visual));
        EXPECT_DEATH(loadTrace(buffer), c.diagnostic) << c.diagnostic;
    }
}

TEST(TraceIoDeath, ReportsTheLineOfTheBadRow)
{
    // Line 1 is the header, then an annotation, a good row and a blank
    // line: the bad row is line 5.
    std::stringstream buffer;
    buffer << "arrival,prompt_id,topic_id,user_id,session_id,text,"
              "visual,lexical\n"
              "#@ at 10 kill 1\n"
              "1.0,2,3,4,5,\"x\",0.5,0.5\n"
              "\n"
              "2.0,2,3,4,5x,\"x\",0.5,0.5\n";
    EXPECT_DEATH(loadAnnotatedTrace(buffer),
                 "trace:5: bad session_id \"5x\"");
}

} // namespace
} // namespace modm::workload
