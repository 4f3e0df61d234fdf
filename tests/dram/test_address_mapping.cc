/**
 * @file
 * Unit and property tests for the address mapper.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "dram/address_mapping.hh"

using namespace dasdram;

namespace dasdram
{

// Scheme names in test names instead of gtest's byte dump.
void
PrintTo(MappingScheme s, std::ostream *os)
{
    switch (s) {
      case MappingScheme::RoRaBaChCo: *os << "RoRaBaChCo"; return;
      case MappingScheme::RoBaRaChCo: *os << "RoBaRaChCo"; return;
      case MappingScheme::ChRaBaRoCo: *os << "ChRaBaRoCo"; return;
    }
    *os << static_cast<int>(s);
}

} // namespace dasdram

class MappingRoundTrip : public ::testing::TestWithParam<MappingScheme>
{
};

TEST_P(MappingRoundTrip, EncodeDecodeIdentity)
{
    DramGeometry g;
    AddressMapper m(g, GetParam());
    for (Addr a : {Addr{0}, Addr{64}, Addr{8192}, Addr{123456 * 64},
                   Addr{g.capacityBytes() - 64}}) {
        DramLoc loc = m.decode(a);
        EXPECT_EQ(m.encode(loc), a) << "addr " << a;
    }
}

TEST_P(MappingRoundTrip, FieldsWithinBounds)
{
    DramGeometry g;
    AddressMapper m(g, GetParam());
    for (Addr a = 0; a < 64 * MiB; a += 64 * 1021) { // odd stride
        DramLoc loc = m.decode(a);
        EXPECT_LT(loc.channel, g.channels);
        EXPECT_LT(loc.rank, g.ranksPerChannel);
        EXPECT_LT(loc.bank, g.banksPerRank);
        EXPECT_LT(loc.row, g.rowsPerBank);
        EXPECT_LT(loc.column, g.linesPerRow());
    }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MappingRoundTrip,
                         ::testing::Values(MappingScheme::RoRaBaChCo,
                                           MappingScheme::RoBaRaChCo,
                                           MappingScheme::ChRaBaRoCo));

TEST(AddressMapper, ContiguousRowIsOneDramRow)
{
    // With RoRaBaChCo, one 8 KB-aligned block maps to a single row of a
    // single bank — the property row-level migration relies on.
    DramGeometry g;
    AddressMapper m(g, MappingScheme::RoRaBaChCo);
    DramLoc first = m.decode(0);
    for (Addr a = 0; a < g.rowBytes; a += g.lineBytes) {
        DramLoc loc = m.decode(a);
        EXPECT_TRUE(loc.sameRow(first));
        EXPECT_EQ(loc.column, a / g.lineBytes);
    }
    // The next 8 KB block goes to a different channel (interleaving).
    DramLoc next = m.decode(g.rowBytes);
    EXPECT_NE(next.channel, first.channel);
}

TEST(AddressMapper, RowStrideCoversAllBanksBeforeNextRow)
{
    DramGeometry g;
    AddressMapper m(g, MappingScheme::RoRaBaChCo);
    std::set<std::tuple<unsigned, unsigned, unsigned>> banks;
    Addr stride = g.rowBytes;
    Addr blocks_per_row_sweep = static_cast<Addr>(g.channels) *
                                g.ranksPerChannel * g.banksPerRank;
    for (Addr i = 0; i < blocks_per_row_sweep; ++i) {
        DramLoc loc = m.decode(i * stride);
        EXPECT_EQ(loc.row, 0u);
        banks.insert({loc.channel, loc.rank, loc.bank});
    }
    EXPECT_EQ(banks.size(), blocks_per_row_sweep);
    EXPECT_EQ(m.decode(blocks_per_row_sweep * stride).row, 1u);
}

class MappingEdges : public ::testing::TestWithParam<MappingScheme>
{
};

TEST_P(MappingEdges, LocRoundTripAtAddressSpaceEdges)
{
    // encode∘decode identity at every corner of the coordinate space:
    // first/last channel, rank, bank, column, and rows chosen around
    // migration-group boundaries (group size 32) where off-by-one in
    // group indexing would surface. Catches truncated bit widths and
    // swapped field order.
    DramGeometry g;
    const unsigned group = 32;
    const std::uint64_t rows[] = {0,
                                  group - 1,
                                  group,
                                  g.rowsPerBank / 2 - 1,
                                  g.rowsPerBank - group,
                                  g.rowsPerBank - group - 1,
                                  g.rowsPerBank - 1};
    AddressMapper m(g, GetParam());
    for (unsigned ch : {0u, g.channels - 1}) {
        for (unsigned ra : {0u, g.ranksPerChannel - 1}) {
            for (unsigned ba : {0u, g.banksPerRank - 1}) {
                for (std::uint64_t row : rows) {
                    for (std::uint64_t col :
                         {std::uint64_t{0}, g.linesPerRow() - 1}) {
                        DramLoc loc;
                        loc.channel = ch;
                        loc.rank = ra;
                        loc.bank = ba;
                        loc.row = row;
                        loc.column = col;
                        Addr a = m.encode(loc);
                        ASSERT_LT(a, g.capacityBytes());
                        DramLoc back = m.decode(a);
                        EXPECT_TRUE(back.sameRow(loc))
                            << "ch" << ch << " ra" << ra << " ba" << ba
                            << " row " << row;
                        EXPECT_EQ(back.column, col);
                    }
                }
            }
        }
    }
}

TEST_P(MappingEdges, LastAddressDecodesToLastCoordinates)
{
    DramGeometry g;
    AddressMapper m(g, GetParam());
    DramLoc loc = m.decode(g.capacityBytes() - g.lineBytes);
    EXPECT_EQ(loc.row, g.rowsPerBank - 1);
    EXPECT_EQ(loc.channel, g.channels - 1);
    EXPECT_EQ(loc.rank, g.ranksPerChannel - 1);
    EXPECT_EQ(loc.bank, g.banksPerRank - 1);
    EXPECT_EQ(loc.column, g.linesPerRow() - 1);
}

TEST_P(MappingEdges, GlobalRowIdRoundTripAtEdges)
{
    // The mapper's DramLoc and the translation machinery's GlobalRowId
    // must agree at the extremes — the last global row belongs to the
    // last migration group, not one past it.
    DramGeometry g;
    GlobalRowId last = makeGlobalRowId(g, g.channels - 1,
                                       g.ranksPerChannel - 1,
                                       g.banksPerRank - 1,
                                       g.rowsPerBank - 1);
    EXPECT_EQ(last, g.totalRows() - 1);
    DramLoc loc = decodeGlobalRowId(g, last);
    EXPECT_EQ(loc.channel, g.channels - 1);
    EXPECT_EQ(loc.rank, g.ranksPerChannel - 1);
    EXPECT_EQ(loc.bank, g.banksPerRank - 1);
    EXPECT_EQ(loc.row, g.rowsPerBank - 1);

    AddressMapper m(g, GetParam());
    Addr a = m.encode(loc);
    DramLoc back = m.decode(a);
    EXPECT_TRUE(back.sameRow(loc));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MappingEdges,
                         ::testing::Values(MappingScheme::RoRaBaChCo,
                                           MappingScheme::RoBaRaChCo,
                                           MappingScheme::ChRaBaRoCo));

TEST(AddressMapper, ChannelBalanceUnderStreaming)
{
    DramGeometry g;
    AddressMapper m(g);
    std::vector<int> per_channel(g.channels, 0);
    for (Addr a = 0; a < 16 * MiB; a += 64)
        ++per_channel[m.decode(a).channel];
    EXPECT_EQ(per_channel[0], per_channel[1]);
}
