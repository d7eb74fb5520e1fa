// StackOptions::parse: the stack's one strict reading of its Config.
//
// Every key is known, every value parses completely and in range, or the
// stack refuses to build and the error names the key and the value. A
// refused config creates no WAL or tier directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sim/cluster.hpp"
#include "stack/stack.hpp"

namespace hpcmon::stack {
namespace {

using core::kSecond;

sim::ClusterParams small_cluster() {
  sim::ClusterParams p;
  p.shape.cabinets = 1;
  p.shape.chassis_per_cabinet = 1;
  p.shape.blades_per_chassis = 2;
  p.shape.nodes_per_blade = 2;
  p.tick = 5 * kSecond;
  p.seed = 19;
  return p;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_stack_options_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

core::Config config_of(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  core::Config c;
  for (const auto& [k, v] : entries) c.set(k, v);
  return c;
}

// Every key the stack accepts, each with a valid value that is not its
// default.
const std::vector<std::pair<std::string, std::string>> kEveryKey = {
    {"sample_interval_s", "30"},      {"log_interval_s", "10"},
    {"probe_interval_s", "0"},        {"health_interval_s", "0"},
    {"chunk_points", "64"},           {"rules", "false"},
    {"numeric_alerts", "no"},         {"novelty", "yes"},
    {"novelty_training_s", "60"},     {"gate_pre", "true"},
    {"gate_post", "1"},               {"gate_repair_s", "900"},
    {"quarantine_on_hw_critical", "true"},
    {"ingest_shards", "2"},           {"ingest_queue_cap", "8"},
    {"ingest_policy", "reject"},      {"ingest_autostart", "0"},
    {"degradation", "1"},             {"degradation_interval_s", "30"},
    {"wal_path", "/nonexistent/wal"}, {"wal_segment_bytes", "4096"},
    {"dead_letter_cap", "8"},         {"sampler_deadline_ms", "50"},
    {"breaker_threshold", "5"},       {"breaker_cooldown_s", "120"},
    {"serve_port", "65535"},          {"serve_writer_threads", "1"},
    {"serve_idle_timeout_ms", "250"}, {"relay_upstream", "4464"},
    {"relay_source", "7"},            {"relay_queue_cap", "16"},
    {"relay_backoff_ms", "2"},        {"relay_backoff_max_ms", "50"},
    {"tier_dir", "/nonexistent/tiers"},
    {"tier_policy", "0:60,60,30;10:600,300,0"},
    {"tier_hot_window_s", "300"},     {"compact_interval_s", "60"},
    {"tier_disk_budget_mb", "2"},     {"rollup_enable", "true"},
    {"rollup_tick_s", "7"},
};

TEST(StackOptionsTest, EveryKeyParsesToItsField) {
  ASSERT_EQ(kEveryKey.size(), 40u);
  const auto parsed = StackOptions::parse(config_of(kEveryKey));
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto& o = parsed.value();
  EXPECT_EQ(o.sample_interval, 30 * kSecond);
  EXPECT_EQ(o.probe_interval, 0);
  EXPECT_EQ(o.chunk_points, 64u);
  EXPECT_FALSE(o.rules);
  EXPECT_FALSE(o.numeric_alerts);
  EXPECT_TRUE(o.novelty);
  EXPECT_TRUE(o.gate_post);
  EXPECT_EQ(o.gate_repair, 900 * kSecond);
  EXPECT_EQ(o.ingest_shards, 2u);
  EXPECT_EQ(o.ingest.queue_capacity, 8u);
  EXPECT_EQ(o.ingest.policy, ingest::OverloadPolicy::kReject);
  EXPECT_FALSE(o.ingest_autostart);
  EXPECT_EQ(o.wal.dir, "/nonexistent/wal");
  EXPECT_EQ(o.wal.segment_bytes, 4096u);
  EXPECT_EQ(o.wal.dead_letter_cap, 8u);
  EXPECT_EQ(o.breaker_threshold, 5);
  EXPECT_EQ(o.breaker.cooldown, 120 * kSecond);
  EXPECT_TRUE(o.serve_enable);
  EXPECT_EQ(o.serve.port, 65535);
  EXPECT_EQ(o.serve.idle_timeout_ms, 250);
  EXPECT_EQ(o.relay.upstream_port, 4464);
  EXPECT_EQ(o.relay.source_id, 7u);
  EXPECT_EQ(o.relay.backoff_max_ms, 50);
  ASSERT_EQ(o.tier_policy.tiers.size(), 2u);
  EXPECT_EQ(o.tier_policy.tiers[1].keep[2], 0);
  EXPECT_EQ(o.compactor.hot_window, 300 * kSecond);
  EXPECT_EQ(o.tier_disk_budget_bytes, 2 << 20);
  EXPECT_TRUE(o.rollup_enable);
  EXPECT_EQ(o.rollup_tick, 7 * kSecond);
}

// An empty config keeps each component's own default: the stack restates
// none of them.
TEST(StackOptionsTest, EmptyConfigKeepsComponentDefaults) {
  const auto parsed = StackOptions::parse(core::Config{});
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto& o = parsed.value();
  EXPECT_EQ(o.ingest.queue_capacity, ingest::IngestConfig{}.queue_capacity);
  EXPECT_EQ(o.ingest.policy, ingest::IngestConfig{}.policy);
  EXPECT_EQ(o.wal.segment_bytes, resilience::WalOptions{}.segment_bytes);
  EXPECT_EQ(o.wal.dead_letter_cap, resilience::WalOptions{}.dead_letter_cap);
  EXPECT_EQ(o.breaker.cooldown, resilience::BreakerConfig{}.cooldown);
  EXPECT_EQ(o.serve.writer_threads, serve::ServeConfig{}.writer_threads);
  EXPECT_EQ(o.relay.queue_cap, relay::RelayConfig{}.queue_cap);
  EXPECT_EQ(o.relay.backoff_max_ms, relay::RelayConfig{}.backoff_max_ms);
  EXPECT_EQ(o.compactor.hot_window, store::CompactorOptions{}.hot_window);
  EXPECT_FALSE(o.serve_enable);
  EXPECT_TRUE(o.wal.dir.empty());
  EXPECT_TRUE(o.tier_dir.empty());
  EXPECT_EQ(o.tier_policy.tiers.size(),
            store::TierPolicy::standard().tiers.size());
}

// Each of these, read leniently, builds a different stack without a word:
// WAL off, a removed knob ignored, one shard, no rollup tree, the block
// policy, an unbounded queue, port 4464, a one-tier ladder, a division by
// zero, or an event loop that never returns. Each must be refused with the
// key and the value, before the configured WAL or tier directory exists.
TEST(StackOptionsTest, ProbeConfigsAreRefusedBeforeAnyDirectoryExists) {
  const std::string wal = scratch_dir("wal");
  const std::string tiers = scratch_dir("tiers");
  const std::string typo_wal = scratch_dir("typo_wal");
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"wal_pth", typo_wal},
      {"hot_window_s", "60"},
      {"ingest_shards", "4x"},
      {"rollup_enable", "on"},
      {"ingest_policy", "drop-oldest"},
      {"ingest_queue_cap", "-1"},
      {"serve_port", "70000"},
      {"tier_policy", "0:172800,86400,21600;10:60480O,259200,86400"},
      {"sample_interval_s", "0"},
      {"compact_interval_s", "0"},
  };
  sim::Cluster cluster(small_cluster());
  for (const auto& [key, value] : probes) {
    const auto config = config_of({{"probe_interval_s", "0"},
                                   {"health_interval_s", "0"},
                                   {"wal_path", wal},
                                   {"tier_dir", tiers},
                                   {key, value}});
    const auto parsed = StackOptions::parse(config);
    ASSERT_FALSE(parsed.is_ok()) << key;
    EXPECT_NE(parsed.message().find("'" + key + "'"), std::string::npos)
        << parsed.message();
    EXPECT_NE(parsed.message().find("'" + value + "'"), std::string::npos)
        << parsed.message();
    try {
      MonitoringStack stack(cluster, config);
      ADD_FAILURE() << key << " = " << value << " built a stack";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), parsed.message());
    }
    EXPECT_FALSE(std::filesystem::exists(wal)) << key;
    EXPECT_FALSE(std::filesystem::exists(tiers)) << key;
    EXPECT_FALSE(std::filesystem::exists(typo_wal)) << key;
  }
}

// Keys the stack no longer reads must be unknown-key errors, not silent
// no-ops: six that no deployment set, and the four of the deleted in-memory
// retention ladder.
TEST(StackOptionsTest, RemovedKeysAreUnknown) {
  for (const char* key :
       {"ingest_coalesce", "serve_egress_cap", "relay_batch_samples",
        "relay_dedupe_window", "corrosion_alert_ppb", "min_free_mem_gb",
        "hot_window_s", "warm_window_s", "warm_bucket_s", "archive_path"}) {
    const auto parsed = StackOptions::parse(config_of({{key, "1"}}));
    ASSERT_FALSE(parsed.is_ok()) << key;
    EXPECT_EQ(parsed.message(),
              std::string("unknown config key '") + key + "' (value '1')");
  }
}

TEST(StackOptionsTest, RangesAreChecked) {
  const auto ok = [](const std::string& key, const std::string& value) {
    return StackOptions::parse(config_of({{key, value}})).is_ok();
  };
  // Periods: at least 1 s where a zero period would spin or divide by zero.
  for (const char* key : {"sample_interval_s", "log_interval_s",
                          "compact_interval_s", "degradation_interval_s",
                          "rollup_tick_s"}) {
    EXPECT_FALSE(ok(key, "0")) << key;
    EXPECT_TRUE(ok(key, "1")) << key;
  }
  // 0 still turns the probe and health batteries off; negative is an error.
  for (const char* key : {"probe_interval_s", "health_interval_s"}) {
    EXPECT_TRUE(ok(key, "0")) << key;
    EXPECT_FALSE(ok(key, "-1")) << key;
  }
  for (const char* key : {"serve_port", "relay_upstream"}) {
    EXPECT_TRUE(ok(key, "65535")) << key;
    EXPECT_FALSE(ok(key, "65536")) << key;
  }
  for (const char* key :
       {"chunk_points", "ingest_queue_cap", "wal_segment_bytes",
        "dead_letter_cap", "serve_writer_threads", "relay_queue_cap",
        "tier_disk_budget_mb"}) {
    EXPECT_FALSE(ok(key, "0")) << key;
    EXPECT_TRUE(ok(key, "1")) << key;
  }
  EXPECT_TRUE(ok("ingest_shards", "0"));
  // Values must parse completely.
  EXPECT_FALSE(ok("sample_interval_s", "30s"));
  EXPECT_FALSE(ok("sample_interval_s", " 30"));
  EXPECT_FALSE(ok("sample_interval_s", ""));
  EXPECT_FALSE(ok("sample_interval_s", "99999999999999999999"));
  EXPECT_FALSE(ok("rules", "True"));
  EXPECT_FALSE(ok("tier_policy", "0:0,0,0"));
  EXPECT_TRUE(ok("tier_policy", ""));  // empty keeps the standard ladder
}

// A key for a tier that is off is accepted and ignored.
TEST(StackOptionsTest, KeysForAnOffTierAreIgnored) {
  sim::Cluster cluster(small_cluster());
  MonitoringStack stack(cluster, config_of({{"probe_interval_s", "0"},
                                            {"health_interval_s", "0"},
                                            {"rollup_tick_s", "7"},
                                            {"serve_writer_threads", "4"},
                                            {"relay_queue_cap", "16"},
                                            {"tier_hot_window_s", "60"},
                                            {"wal_segment_bytes", "4096"}}));
  EXPECT_EQ(stack.rollup(), nullptr);
  EXPECT_EQ(stack.serve(), nullptr);
  EXPECT_EQ(stack.relay(), nullptr);
  EXPECT_EQ(stack.tiers(), nullptr);
  EXPECT_EQ(stack.wal(), nullptr);
  cluster.run_for(core::kMinute);
}

// The keys the end-to-end benchmark sets keep the meaning they had under
// the lenient reader.
TEST(StackOptionsTest, BenchmarkConfigsKeepTheirMeaning) {
  const auto parsed = StackOptions::parse(config_of({
      {"probe_interval_s", "0"},
      {"health_interval_s", "0"},
      {"ingest_policy", "block"},
      {"wal_path", "/nonexistent/node_wal"},
      {"rollup_tick_s", "60"},
      {"ingest_shards", "2"},
      {"rollup_enable", "1"},
      {"serve_port", "0"},
      {"serve_writer_threads", "1"},
      {"tier_dir", "/nonexistent/tiers"},
      {"chunk_points", "16"},
      {"tier_hot_window_s", "1200"},
      {"compact_interval_s", "300"},
      {"relay_upstream", "0"},
      {"relay_queue_cap", "65536"},
  }));
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto& o = parsed.value();
  EXPECT_EQ(o.probe_interval, 0);
  EXPECT_EQ(o.health_interval, 0);
  EXPECT_EQ(o.ingest.policy, ingest::OverloadPolicy::kBlock);
  EXPECT_EQ(o.wal.dir, "/nonexistent/node_wal");
  EXPECT_EQ(o.rollup_tick, 60 * kSecond);
  EXPECT_EQ(o.ingest_shards, 2u);
  EXPECT_TRUE(o.rollup_enable);
  EXPECT_TRUE(o.serve_enable);
  EXPECT_EQ(o.serve.port, 0);
  EXPECT_EQ(o.serve.writer_threads, 1u);
  EXPECT_EQ(o.tier_dir, "/nonexistent/tiers");
  EXPECT_EQ(o.chunk_points, 16u);
  EXPECT_EQ(o.compactor.hot_window, 1200 * kSecond);
  EXPECT_EQ(o.compact_interval, 300 * kSecond);
  EXPECT_EQ(o.relay.upstream_port, 0);
  EXPECT_EQ(o.relay.queue_cap, 65536u);
}

}  // namespace
}  // namespace hpcmon::stack
