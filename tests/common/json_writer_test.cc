#include "common/json_writer.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace came {
namespace {

TEST(JsonWriterTest, NestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("micro_ops");
  w.Key("shapes");
  w.BeginArray();
  w.BeginObject();
  w.Key("m");
  w.Int(512);
  w.Key("gflops");
  w.Double(61.5);
  w.EndObject();
  w.EndArray();
  w.Key("ok");
  w.Bool(true);
  w.Key("none");
  w.Null();
  w.EndObject();
  EXPECT_EQ(w.Str(),
            "{\n"
            "  \"bench\": \"micro_ops\",\n"
            "  \"shapes\": [\n"
            "    {\n"
            "      \"m\": 512,\n"
            "      \"gflops\": 61.5\n"
            "    }\n"
            "  ],\n"
            "  \"ok\": true,\n"
            "  \"none\": null\n"
            "}");
}

TEST(JsonWriterTest, EmptyContainersStayOnOneLine) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.EndArray();
  w.Key("o");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.Str(), "{\n  \"a\": [],\n  \"o\": {}\n}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.String("a\"b\\c\nd\x01");
  EXPECT_EQ(w.Str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(1.5);
  w.EndArray();
  EXPECT_EQ(w.Str(), "[\n  null,\n  null,\n  1.5\n]");
}

TEST(JsonWriterTest, WriteFileRoundTrips) {
  JsonWriter w;
  w.BeginObject();
  w.Key("x");
  w.Int(1);
  w.EndObject();
  const std::string path = ::testing::TempDir() + "/json_writer_test.json";
  ASSERT_TRUE(w.WriteFile(path).ok());
  std::ifstream f(path);
  std::stringstream got;
  got << f.rdbuf();
  EXPECT_EQ(got.str(), w.Str() + "\n");
  std::remove(path.c_str());
}

// /dev/full accepts the open and fails every write with ENOSPC: the
// failure must come back as an IOError, not as success. WriteFile writes
// a device in place, so the node itself is never replaced.
TEST(JsonWriterTest, WriteFileToAFullDeviceIsAnIOError) {
  struct stat st {};
  if (::stat("/dev/full", &st) != 0 || !S_ISCHR(st.st_mode)) {
    GTEST_SKIP() << "no /dev/full character device";
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("x");
  w.Int(1);
  w.EndObject();
  const Status written = w.WriteFile("/dev/full");
  EXPECT_EQ(written.code(), Status::Code::kIOError) << written.ToString();
  ASSERT_EQ(::stat("/dev/full", &st), 0);
  EXPECT_TRUE(S_ISCHR(st.st_mode));
}

TEST(JsonWriterDeathTest, ValueWithoutKeyInObjectDies) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_DEATH(w.Int(1), "without a Key");
}

TEST(JsonWriterDeathTest, StrBeforeCloseDies) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_DEATH(w.Str(), "not closed");
}

}  // namespace
}  // namespace came
