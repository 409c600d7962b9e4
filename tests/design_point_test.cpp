// design_point_test - the one declaration of the request dimensions:
// validation, equality and hashing, the persisted encoding, and the order
// cache files are written in.
#include "core/design_point.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/binary.hpp"
#include "util/check.hpp"

namespace edea::core {
namespace {

DesignPoint varied() {
  DesignPoint p;
  p.config.td = 16;
  p.config.clock_ghz = 0.5;
  p.backend = "serialized";
  p.batch = 2;
  p.dilation = 3;
  p.depth_multiplier = 4;
  return p;
}

TEST(DesignPointTest, DefaultsAreThePaperPointOnTheDefaultBackend) {
  const DesignPoint p;
  EXPECT_EQ(p.config, EdeaConfig::paper());
  EXPECT_EQ(p.backend, std::string(kDefaultBackendId));
  EXPECT_EQ(p.batch, 1);
  EXPECT_EQ(p.dilation, 1);
  EXPECT_EQ(p.depth_multiplier, 1);
  EXPECT_NO_THROW(p.validate("default"));
}

TEST(DesignPointTest, ValidateRejectsUnservablePointsNamingTheSubject) {
  const auto message = [](const DesignPoint& p) -> std::string {
    try {
      p.validate("sweep job", "a@1");
    } catch (const PreconditionError& e) {
      return e.what();
    }
    return "";
  };
  DesignPoint p;
  p.backend = "warp-drive";
  EXPECT_NE(message(p).find("sweep job 'a@1': unknown backend 'warp-drive'"),
            std::string::npos)
      << message(p);
  p = DesignPoint{};
  p.backend.clear();  // empty is an unknown id, not "the default"
  EXPECT_FALSE(message(p).empty());
  p = DesignPoint{};
  p.config.clock_ghz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message(p).find("non-finite clock"), std::string::npos);
  for (int DesignPoint::*count : {&DesignPoint::batch, &DesignPoint::dilation,
                                  &DesignPoint::depth_multiplier}) {
    p = DesignPoint{};
    p.*count = 0;
    EXPECT_NE(message(p).find("must be >= 1, got 0"), std::string::npos)
        << message(p);
  }
  // An infeasible configuration is the simulation's verdict, not a
  // validation error: infeasible points are data.
  p = DesignPoint{};
  p.config.kernel = 5;
  EXPECT_TRUE(message(p).empty());
}

TEST(DesignPointTest, EqualPointsHashEqualAndEveryFieldDistinguishes) {
  const DesignPoint base = varied();
  EXPECT_EQ(base, varied());
  EXPECT_EQ(base.hash(), varied().hash());
  DesignPoint other = base;
  other.config.clock_ghz = 1.0;
  EXPECT_NE(base, other);
  other = base;
  other.backend = "edea";
  EXPECT_NE(base, other);
  for (int DesignPoint::*count : {&DesignPoint::batch, &DesignPoint::dilation,
                                  &DesignPoint::depth_multiplier}) {
    other = base;
    other.*count += 1;
    EXPECT_NE(base, other);
    EXPECT_NE(base.hash(), other.hash());
  }
}

TEST(DesignPointTest, EncodeDecodeRoundTripsAndDecodeValidates) {
  util::ByteWriter w;
  varied().encode(w);
  // EdeaConfig (7 x i32 + f64), the length-prefixed backend id, 3 x i32.
  EXPECT_EQ(w.buffer().size(), 36u + 8u + 10u + 12u);
  util::ByteReader r(w.buffer());
  EXPECT_EQ(DesignPoint::decode(r, "cache file", "x"), varied());
  EXPECT_TRUE(r.exhausted());

  DesignPoint bad = varied();
  bad.batch = 0;
  util::ByteWriter bw;
  bad.encode(bw);
  util::ByteReader br(bw.buffer());
  EXPECT_THROW((void)DesignPoint::decode(br, "cache file", "x"),
               PreconditionError);
}

TEST(DesignPointTest, SortOrderIsConfigHashThenBackendThenCounts) {
  const DesignPoint a = varied();
  DesignPoint b = a;
  b.backend = "edea";  // "edea" < "serialized"
  EXPECT_TRUE(b.sorts_before(a));
  EXPECT_FALSE(a.sorts_before(b));
  b = a;
  b.depth_multiplier = 1;
  EXPECT_TRUE(b.sorts_before(a));
  b = a;
  b.config.td = 8;  // a different config: its hash decides first
  EXPECT_EQ(b.sorts_before(a), b.config.hash() < a.config.hash());
  EXPECT_FALSE(a.sorts_before(a));
}

}  // namespace
}  // namespace edea::core
