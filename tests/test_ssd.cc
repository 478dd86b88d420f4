/**
 * @file
 * Tests for the NVMe SSD parameters: the PM9A3 / SmartSSD presets and
 * the sub-page random-write penalty.
 */

#include <gtest/gtest.h>

#include "storage/ssd.h"

namespace hilos {
namespace {

TEST(SsdConfig, Pm9a3PresetMatchesDatasheet)
{
    const SsdConfig cfg = pm9a3Config();
    EXPECT_DOUBLE_EQ(cfg.seq_read_bw, mbps(6900));
    EXPECT_DOUBLE_EQ(cfg.seq_write_bw, mbps(4100));
    EXPECT_NEAR(static_cast<double>(cfg.capacity), 3.84e12, 1e9);
    EXPECT_DOUBLE_EQ(cfg.active_power, 13.0);
    EXPECT_DOUBLE_EQ(cfg.endurance_pbw, 7.008);
}

TEST(SsdConfig, SmartSsdNandIsP2pLimited)
{
    const SsdConfig cfg = smartSsdNandConfig();
    EXPECT_LE(cfg.seq_read_bw, mbps(3300));  // PCIe 3.0 x4 internal path
    EXPECT_LT(cfg.seq_read_bw, pm9a3Config().seq_read_bw);
}

TEST(Ssd, SubPageRandomWritePaysFullPage)
{
    const SsdConfig cfg = pm9a3Config();
    // A 256 B write costs the same as a full 4 KiB write slot.
    EXPECT_DOUBLE_EQ(ssdRandomWriteTime(cfg, 1000, 256),
                     ssdRandomWriteTime(cfg, 1000, 4096));
}

}  // namespace
}  // namespace hilos
