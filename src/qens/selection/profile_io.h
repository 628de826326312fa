#ifndef QENS_SELECTION_PROFILE_IO_H_
#define QENS_SELECTION_PROFILE_IO_H_

/// \file profile_io.h
/// Text wire codec for NodeProfile — the actual payload a node ships to the
/// leader in the selection protocol (Section III-C): line oriented, hex
/// floats for exact round trips.
///
/// Format:
///   qens-profile v1
///   node <id> <name>
///   samples <total>
///   clusters <k>
///   cluster <size> <d> <centroid...> <min1> <max1> ... <mind> <maxd>   (k x)

#include <string>

#include "qens/common/status.h"
#include "qens/selection/node_profile.h"

namespace qens::selection {

/// Serialize a profile to the v1 text format.
std::string SerializeProfile(const NodeProfile& profile);

/// Parse a profile from the v1 text format. Fails on structural errors.
Result<NodeProfile> DeserializeProfile(const std::string& text);

/// Size in bytes of the serialized form (what the simulated network
/// carries for the profile upload).
size_t SerializedProfileBytes(const NodeProfile& profile);

}  // namespace qens::selection

#endif  // QENS_SELECTION_PROFILE_IO_H_
