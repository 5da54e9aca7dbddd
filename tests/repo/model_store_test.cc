#include "repo/model_store.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/split.h"

namespace capplan::repo {
namespace {

StoredModel MakeModel(const std::string& key, double rmse,
                      std::int64_t fitted_at) {
  StoredModel m;
  m.key = key;
  m.technique = "SARIMAX_FFT_EXOG";
  m.spec = "(1,1,2)(1,1,1,24)";
  m.test_rmse = rmse;
  m.test_mape = 12.5;
  m.fitted_at_epoch = fitted_at;
  return m;
}

TEST(ModelRepositoryTest, PutAndGet) {
  ModelRepository repo;
  repo.Put(MakeModel("cdbm011/cpu", 8.42, 1000));
  auto m = repo.Get("cdbm011/cpu");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->spec, "(1,1,2)(1,1,1,24)");
  EXPECT_DOUBLE_EQ(m->test_rmse, 8.42);
  EXPECT_TRUE(repo.Contains("cdbm011/cpu"));
  EXPECT_FALSE(repo.Get("other").ok());
}

TEST(ModelRepositoryTest, PutReplaces) {
  ModelRepository repo;
  repo.Put(MakeModel("k", 10.0, 0));
  repo.Put(MakeModel("k", 5.0, 1));
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_DOUBLE_EQ(repo.Get("k")->test_rmse, 5.0);
}

TEST(StalenessTest, MissingModelIsStale) {
  ModelRepository repo;
  EXPECT_TRUE(repo.IsStale("absent", 0));
}

TEST(StalenessTest, FreshModelNotStale) {
  ModelRepository repo;
  repo.Put(MakeModel("k", 10.0, 1000));
  EXPECT_FALSE(repo.IsStale("k", 1000 + 3600));
}

TEST(StalenessTest, OneWeekAgeTriggersRetrain) {
  // The paper's policy: "used for a period of one week".
  ModelRepository repo;
  repo.Put(MakeModel("k", 10.0, 0));
  const std::int64_t week = 7 * 24 * 3600;
  EXPECT_FALSE(repo.IsStale("k", week - 1));
  EXPECT_TRUE(repo.IsStale("k", week + 1));
}

TEST(StalenessTest, RmseDegradationTriggersRetrain) {
  // "or until the model's RMSE drops to a point where it is rendered
  // useless".
  ModelRepository repo;
  repo.Put(MakeModel("k", 10.0, 1000));
  EXPECT_FALSE(repo.IsStale("k", 2000, 15.0));
  EXPECT_TRUE(repo.IsStale("k", 2000, 25.0));  // 2.5x the stored RMSE
}

TEST(StalenessTest, UnknownCurrentRmseIgnored) {
  ModelRepository repo;
  repo.Put(MakeModel("k", 10.0, 1000));
  EXPECT_FALSE(repo.IsStale("k", 2000, -1.0));
}

TEST(StalenessTest, CustomPolicy) {
  StalenessPolicy policy;
  policy.max_age_seconds = 100;
  policy.rmse_degradation_factor = 1.1;
  ModelRepository repo(policy);
  repo.Put(MakeModel("k", 10.0, 0));
  EXPECT_TRUE(repo.IsStale("k", 101));
  EXPECT_TRUE(repo.IsStale("k", 50, 11.5));
  EXPECT_FALSE(repo.IsStale("k", 50, 10.5));
}

TEST(ModelRepositoryTest, SaveLoadRoundTrip) {
  ModelRepository repo;
  repo.Put(MakeModel("cdbm011/cpu", 8.42, 1559520000));
  repo.Put(MakeModel("cdbm012/logical_iops", 52879.49, 1559520001));
  const std::string path = ::testing::TempDir() + "/models.csv";
  ASSERT_TRUE(repo.Save(path).ok());

  ModelRepository loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  auto m = loaded.Get("cdbm012/logical_iops");
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->test_rmse, 52879.49);
  EXPECT_EQ(m->fitted_at_epoch, 1559520001);
  EXPECT_EQ(m->technique, "SARIMAX_FFT_EXOG");
}

TEST(ModelRepositoryTest, CoefficientsSurviveSaveLoad) {
  // Warm-start hints: the dense winner coefficients must round-trip at full
  // double precision (the selector seeds simplex vertices from them).
  ModelRepository repo;
  StoredModel m = MakeModel("cdbm011/cpu", 8.42, 1559520000);
  m.ar_coef = {0.123456789012345678, -0.5, 1e-17};
  m.ma_coef = {0.25};
  repo.Put(m);
  repo.Put(MakeModel("cdbm012/cpu", 9.0, 1559520001));  // no coefficients
  const std::string path = ::testing::TempDir() + "/models_coef.csv";
  ASSERT_TRUE(repo.Save(path).ok());

  ModelRepository loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  auto got = loaded.Get("cdbm011/cpu");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->ar_coef.size(), 3u);
  EXPECT_DOUBLE_EQ(got->ar_coef[0], 0.123456789012345678);
  EXPECT_DOUBLE_EQ(got->ar_coef[1], -0.5);
  EXPECT_DOUBLE_EQ(got->ar_coef[2], 1e-17);
  ASSERT_EQ(got->ma_coef.size(), 1u);
  EXPECT_DOUBLE_EQ(got->ma_coef[0], 0.25);
  auto plain = loaded.Get("cdbm012/cpu");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->ar_coef.empty());
  EXPECT_TRUE(plain->ma_coef.empty());
}

TEST(ModelRepositoryTest, CoefficientEncodingRoundTrip) {
  EXPECT_EQ(EncodeCoefficients({}), "");
  const std::vector<double> v = {0.5, -1.25, 3.0};
  auto back = DecodeCoefficients(EncodeCoefficients(v));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, v);
  EXPECT_FALSE(DecodeCoefficients("0.5;abc").ok());
}

// A subnormal coefficient (std::stod rejects it: glibc reports ERANGE)
// saves and loads back bit for bit instead of costing the row.
TEST(ModelRepositoryTest, SubnormalCoefficientLoadsBitExactly) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  ModelRepository repo;
  StoredModel m;
  m.key = "cdbm011/cpu";
  m.technique = "SARIMAX";
  m.spec = "(1,0,1)";
  m.ar_coef = {0.5, tiny};
  m.ma_coef = {-tiny};
  m.periods = {24.0};
  m.live_mape = tiny;
  repo.Put(m);
  const std::string path = ::testing::TempDir() + "/models_subnormal.csv";
  ASSERT_TRUE(repo.Save(path).ok());
  ModelRepository loaded;
  ModelRepository::LoadReport report;
  ASSERT_TRUE(loaded.Load(path, &report).ok());
  EXPECT_TRUE(report.row_errors.empty())
      << (report.row_errors.empty() ? "" : report.row_errors[0]);
  auto got = loaded.Get("cdbm011/cpu");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->ar_coef.size(), 2u);
  EXPECT_EQ(std::memcmp(&got->ar_coef[1], &tiny, sizeof(double)), 0);
  ASSERT_EQ(got->ma_coef.size(), 1u);
  EXPECT_EQ(got->ma_coef[0], -tiny);
  EXPECT_TRUE(std::signbit(got->ma_coef[0]));
  EXPECT_EQ(got->live_mape, tiny);
  std::remove(path.c_str());
}

TEST(ModelRepositoryTest, CoefficientDecodingIsStrict) {
  for (const char* bad : {"0.5;", ";0.5", "0.5;;1", "0.5 ", "1.5x", "1e999"}) {
    EXPECT_FALSE(DecodeCoefficients(bad).ok()) << "'" << bad << "'";
  }
  auto one = DecodeCoefficients("-0");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_TRUE(std::signbit((*one)[0]));
}

TEST(ModelRepositoryTest, LoadsLegacySixColumnFiles) {
  // Pre-coefficient files (6-column header) still load; hints stay empty.
  const std::string path = ::testing::TempDir() + "/models_legacy.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "key,technique,spec,test_rmse,test_mape,fitted_at_epoch\n"
        "cdbm011/cpu,SARIMAX,\"(1,1,1)(0,1,1,24)\",8.5,12.0,1559520000\n",
        f);
    std::fclose(f);
  }
  ModelRepository repo;
  ASSERT_TRUE(repo.Load(path).ok());
  auto m = repo.Get("cdbm011/cpu");
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->test_rmse, 8.5);
  EXPECT_TRUE(m->ar_coef.empty());
  EXPECT_TRUE(m->ma_coef.empty());
}

TEST(ModelRepositoryTest, LoadMissingFileFails) {
  ModelRepository repo;
  EXPECT_FALSE(repo.Load("/no/such/file.csv").ok());
}

TEST(ChampionChallengerTest, PromoteAssignsGenerationsAndKeepsLineage) {
  ModelRepository repo;
  StoredModel first = MakeModel("k", 10.0, 100);
  repo.Promote(first);
  EXPECT_EQ(repo.Get("k")->generation, 1);
  EXPECT_FALSE(repo.HasPrevious("k"));  // a first champion has no lineage

  StoredModel second = MakeModel("k", 8.0, 200);
  repo.Promote(second);
  EXPECT_EQ(repo.Get("k")->generation, 2);
  ASSERT_TRUE(repo.HasPrevious("k"));
  auto prev = repo.GetPrevious("k");
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev->generation, 1);
  EXPECT_DOUBLE_EQ(prev->test_rmse, 10.0);
}

TEST(ChampionChallengerTest, ExplicitGenerationIsPreservedOnReplay) {
  ModelRepository repo;
  StoredModel replayed = MakeModel("k", 10.0, 100);
  replayed.generation = 7;  // a journalled promotion carries its number
  repo.Promote(replayed);
  EXPECT_EQ(repo.Get("k")->generation, 7);
}

TEST(ChampionChallengerTest, ReinstateInstallsChampionAndClearsSlot) {
  ModelRepository repo;
  repo.Promote(MakeModel("k", 10.0, 100));
  repo.Promote(MakeModel("k", 8.0, 200));
  StoredModel journalled = MakeModel("k", 10.0, 100);
  journalled.generation = 1;
  repo.Reinstate(journalled);
  EXPECT_EQ(repo.Get("k")->generation, 1);
  EXPECT_DOUBLE_EQ(repo.Get("k")->test_rmse, 10.0);
  // The discarded model is exactly what went bad — it must never be rolled
  // back *to*; a second rollback needs a new promotion first.
  EXPECT_FALSE(repo.HasPrevious("k"));
  EXPECT_FALSE(repo.GetPrevious("k").ok());
}

TEST(ChampionChallengerTest, UpdateLiveMapeTravelsWithTheDemotedChampion) {
  ModelRepository repo;
  repo.Promote(MakeModel("k", 10.0, 100));
  repo.UpdateLiveMape("k", 4.25);
  repo.Promote(MakeModel("k", 8.0, 200));
  auto prev = repo.GetPrevious("k");
  ASSERT_TRUE(prev.ok());
  EXPECT_DOUBLE_EQ(prev->live_mape, 4.25);
  repo.UpdateLiveMape("absent", 1.0);  // no-op, must not crash
}

TEST(ModelRepositoryTest, LineageColumnsSurviveSaveLoad) {
  ModelRepository repo;
  StoredModel m = MakeModel("cdbm011/cpu", 8.42, 1559520000);
  m.generation = 3;
  m.promoted_at_epoch = 1559520777;
  m.live_mape = 6.125;
  repo.Put(m);
  const std::string path = ::testing::TempDir() + "/models_lineage.csv";
  ASSERT_TRUE(repo.Save(path).ok());

  ModelRepository loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  auto got = loaded.Get("cdbm011/cpu");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->generation, 3);
  EXPECT_EQ(got->promoted_at_epoch, 1559520777);
  EXPECT_DOUBLE_EQ(got->live_mape, 6.125);
}

TEST(ModelRepositoryTest, LoadsLegacyEightColumnFiles) {
  // Pre-lineage files (8-column header, with coefficients) still load;
  // models come back with no generation and a never-scored live MAPE.
  const std::string path = ::testing::TempDir() + "/models_legacy8.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "key,technique,spec,test_rmse,test_mape,fitted_at_epoch,"
        "ar_coef,ma_coef\n"
        "cdbm011/cpu,SARIMAX,\"(1,1,1)(0,1,1,24)\",8.5,12.0,1559520000,"
        "0.5;-0.25,0.125\n",
        f);
    std::fclose(f);
  }
  ModelRepository repo;
  ASSERT_TRUE(repo.Load(path).ok());
  auto m = repo.Get("cdbm011/cpu");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->ar_coef, (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(m->generation, 0);
  EXPECT_EQ(m->promoted_at_epoch, 0);
  EXPECT_LT(m->live_mape, 0.0);
}

TEST(ModelRepositoryTest, KeysListing) {
  ModelRepository repo;
  repo.Put(MakeModel("b", 1.0, 0));
  repo.Put(MakeModel("a", 1.0, 0));
  EXPECT_EQ(repo.Keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(ModelRepositoryTest, PeriodsSurviveSaveLoad) {
  // Selection-time seasonal periods (docs/selection.md) round-trip through
  // the registry CSV so /v1/decompose can reuse the selector's routing
  // after a restart instead of re-detecting.
  ModelRepository repo;
  StoredModel m = MakeModel("cdbm011/cpu", 8.42, 1559520000);
  m.technique = "TBATS";
  m.spec = "TBATS(boxcox=n,trend=y,damped=n,arma=(0,0),seasons={24:2,168:1})";
  m.periods = {24.0, 168.0};
  repo.Put(m);
  repo.Put(MakeModel("cdbm012/cpu", 9.0, 1559520001));  // no periods
  const std::string path = ::testing::TempDir() + "/models_periods.csv";
  ASSERT_TRUE(repo.Save(path).ok());

  ModelRepository loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  auto got = loaded.Get("cdbm011/cpu");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->technique, "TBATS");
  EXPECT_EQ(got->periods, (std::vector<double>{24.0, 168.0}));
  auto plain = loaded.Get("cdbm012/cpu");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->periods.empty());
}

TEST(ModelRepositoryTest, LoadsLegacyElevenColumnFiles) {
  // Pre-periods files (11-column header, with lineage) still load; periods
  // stay empty until the next refit re-routes the series.
  const std::string path = ::testing::TempDir() + "/models_legacy11.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "key,technique,spec,test_rmse,test_mape,fitted_at_epoch,"
        "ar_coef,ma_coef,generation,promoted_at_epoch,live_mape\n"
        "cdbm011/cpu,SARIMAX,\"(1,1,1)(0,1,1,24)\",8.5,12.0,1559520000,"
        "0.5;-0.25,0.125,3,1559520777,6.125\n",
        f);
    std::fclose(f);
  }
  ModelRepository repo;
  ASSERT_TRUE(repo.Load(path).ok());
  auto m = repo.Get("cdbm011/cpu");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->generation, 3);
  EXPECT_DOUBLE_EQ(m->live_mape, 6.125);
  EXPECT_TRUE(m->periods.empty());
}

TEST(ModelRepositoryTest, UnknownTechniqueDegradesToRowError) {
  // A registry written by a newer build (or a hand-edited row) must not
  // abort the whole load: the bad row is skipped with a per-row error and
  // every parseable row still lands.
  const std::string path = ::testing::TempDir() + "/models_mixed.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "key,technique,spec,test_rmse,test_mape,fitted_at_epoch,"
        "ar_coef,ma_coef,generation,promoted_at_epoch,live_mape,periods\n"
        "cdbm011/cpu,SARIMAX,\"(1,1,1)(0,1,1,24)\",8.5,12.0,1559520000,"
        ",,1,1559520000,-1,\n"
        "cdbm012/cpu,FANCY_ML,transformer-v2,4.2,6.0,1559520001,"
        ",,1,1559520001,-1,\n"
        "cdbm013/cpu,TBATS,\"TBATS(boxcox=n,trend=y,damped=n,arma=(1,0),"
        "seasons={24:2,168:1})\",7.5,11.0,1559520002,"
        ",,2,1559520002,-1,24;168\n",
        f);
    std::fclose(f);
  }
  ModelRepository repo;
  ModelRepository::LoadReport report;
  ASSERT_TRUE(repo.Load(path, &report).ok());
  EXPECT_EQ(report.loaded, 2u);
  ASSERT_EQ(report.row_errors.size(), 1u);
  EXPECT_NE(report.row_errors[0].find("FANCY_ML"), std::string::npos);
  EXPECT_NE(report.row_errors[0].find("cdbm012/cpu"), std::string::npos);
  EXPECT_TRUE(repo.Contains("cdbm011/cpu"));
  EXPECT_FALSE(repo.Contains("cdbm012/cpu"));
  auto tbats = repo.Get("cdbm013/cpu");
  ASSERT_TRUE(tbats.ok());
  EXPECT_EQ(tbats->periods, (std::vector<double>{24.0, 168.0}));
}

TEST(ModelRepositoryTest, KnownTechniqueListMatchesCoreNames) {
  // IsKnownTechnique is duplicated below the core layer on purpose (repo
  // cannot depend on core); this pins the two lists together.
  using core::Technique;
  for (Technique t :
       {Technique::kArima, Technique::kSarimax, Technique::kSarimaxFftExog,
        Technique::kHes, Technique::kTbats, Technique::kBaseline,
        Technique::kAuto}) {
    EXPECT_TRUE(IsKnownTechnique(core::TechniqueName(t)))
        << core::TechniqueName(t);
  }
  EXPECT_FALSE(IsKnownTechnique("FANCY_ML"));
  EXPECT_FALSE(IsKnownTechnique(""));
  EXPECT_FALSE(IsKnownTechnique("tbats"));  // case-sensitive on purpose
}

}  // namespace
}  // namespace capplan::repo
