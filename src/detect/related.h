#ifndef ENLD_DETECT_RELATED_H_
#define ENLD_DETECT_RELATED_H_

#include "data/dataset.h"

namespace enld {

/// The paper's fair-comparison restriction (Section V-A4): the inventory
/// subset whose observed labels appear in label(D). Every per-request
/// training baseline (Topofilter, O2U-Net, Co-teaching, INCV) trains on
/// this subset together with the arriving dataset.
Dataset RelatedInventorySubset(const Dataset& inventory,
                               const Dataset& incremental);

}  // namespace enld

#endif  // ENLD_DETECT_RELATED_H_
