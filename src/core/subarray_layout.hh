/**
 * @file
 * Asymmetric subarray layout: which physical rows are fast, and the
 * migration-group geometry that bounds where a row may migrate.
 *
 * Following Section 4.3, fast subarrays are placed in a reduced
 * interleaving arrangement so every migration group contains both fast
 * and slow rows of the same bank, giving short migration paths. Of
 * Figure 5's options, partitioning (all fast subarrays at one end of
 * the bank) makes migration paths long, and strict 1:1 interleaving
 * locks the fast ratio; reduced interleaving (1:2 fast:slow) is the
 * paper's choice and the only arrangement modelled. We model it as:
 * each bank's rows are divided into migration groups of @c groupSize
 * consecutive rows; the first @c fastSlotsPerGroup physical slots of
 * each group live in fast subarrays.
 */

#ifndef DASDRAM_CORE_SUBARRAY_LAYOUT_HH
#define DASDRAM_CORE_SUBARRAY_LAYOUT_HH

#include <cstdint>

#include "dram/geometry.hh"
#include "dram/row_class.hh"

namespace dasdram
{

/** Layout parameters. */
struct LayoutConfig
{
    /** Fast-level capacity as a fraction denominator: 1/N. Table 1: 8. */
    unsigned fastRatioDenom = 8;
    /** Migration group size in rows. Table 1: 32. */
    unsigned groupSize = 32;
};

/**
 * The physical fast/slow row map for an entire DRAM system, and the
 * group arithmetic shared by the translation machinery.
 */
class AsymmetricLayout : public RowClassifier
{
  public:
    AsymmetricLayout(const DramGeometry &geom, const LayoutConfig &cfg);

    RowClass classify(unsigned channel, unsigned rank, unsigned bank,
                      std::uint64_t row) const override;

    /** Physical slot index of @p row within its group. */
    unsigned
    slotOf(std::uint64_t row) const
    {
        return static_cast<unsigned>(row % cfg_.groupSize);
    }

    /** True iff physical slot @p slot of a group is a fast slot. */
    bool
    slotIsFast(unsigned slot) const
    {
        return slot < fastSlotsPerGroup_;
    }

    /** Bank-local group index of @p row. */
    std::uint64_t
    groupOf(std::uint64_t row) const
    {
        return row / cfg_.groupSize;
    }

    /** First row of bank-local group @p group. */
    std::uint64_t
    groupBaseRow(std::uint64_t group) const
    {
        return group * cfg_.groupSize;
    }

    unsigned groupSize() const { return cfg_.groupSize; }
    unsigned fastSlotsPerGroup() const { return fastSlotsPerGroup_; }
    std::uint64_t groupsPerBank() const { return groupsPerBank_; }

    /** Groups across the whole system. */
    std::uint64_t
    totalGroups() const
    {
        return groupsPerBank_ * geom_.totalBanks();
    }

    /** System-wide group id of the group containing @p row_id. */
    std::uint64_t
    globalGroupOf(GlobalRowId row_id) const
    {
        return row_id / cfg_.groupSize;
    }

    /** Fast capacity fraction actually realised (== 1/denominator). */
    double
    fastCapacityFraction() const
    {
        return static_cast<double>(fastSlotsPerGroup_) /
               static_cast<double>(cfg_.groupSize);
    }

    const DramGeometry &geometry() const { return geom_; }
    const LayoutConfig &config() const { return cfg_; }

  private:
    DramGeometry geom_;
    LayoutConfig cfg_;
    unsigned fastSlotsPerGroup_;
    std::uint64_t groupsPerBank_;
};

} // namespace dasdram

#endif // DASDRAM_CORE_SUBARRAY_LAYOUT_HH
