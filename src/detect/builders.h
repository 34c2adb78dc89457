#ifndef ENLD_DETECT_BUILDERS_H_
#define ENLD_DETECT_BUILDERS_H_

#include <memory>

#include "detect/registry.h"

namespace enld {
namespace detect {

// The builders the detector table (registry.cc) points at, each defined in
// its detector's .cc file. Everything else creates detectors through
// CreateDetector.
std::unique_ptr<NoisyLabelDetector> NewDefault(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewCl1(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewCl2(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewCoTeaching(
    const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewIncv(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewLongRemix(
    const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewO2U(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewPls(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewProbe(const DetectorContext& context);
std::unique_ptr<NoisyLabelDetector> NewTopofilter(
    const DetectorContext& context);

}  // namespace detect
}  // namespace enld

#endif  // ENLD_DETECT_BUILDERS_H_
