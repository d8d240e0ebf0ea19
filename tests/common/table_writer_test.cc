#include "common/table_writer.h"

#include <gtest/gtest.h>

namespace came {
namespace {

TEST(TableWriterTest, AsciiContainsHeaderAndRows) {
  TableWriter t({"Model", "MRR"});
  t.AddRow({"CamE", "50.4"});
  t.AddRow({"ConvE", "44.1"});
  const std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("Model"), std::string::npos);
  EXPECT_NE(ascii.find("CamE"), std::string::npos);
  EXPECT_NE(ascii.find("44.1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableWriterTest, NumFormatsPrecision) {
  EXPECT_EQ(TableWriter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::Num(50.0), "50.0");
}

}  // namespace
}  // namespace came
