// The JSON codec of faults::FaultSpec, which makes chaos plans replayable: a
// minimized failing plan is a small JSON file, not a core dump.
//
// A spec is one object. Its "ctor" key holds the kind's JSON name, the name
// of its FaultSpec constructor ("corruption", "route-missing", ...); the
// other keys are the spec's non-default fields, in a fixed order.
#pragma once

#include <string>

#include "common/json.h"
#include "faults/faults.h"

namespace rpm::faults {

/// The kind's JSON name; "" for a spec that names no fault. Four kinds'
/// JSON names differ from their report name (fault_kind_name):
/// corruption, route-missing, gid-index-missing and acl-error.
const char* spec_name(FaultKind k);

json::Value spec_to_value(const FaultSpec& spec);
/// Throws std::runtime_error on a malformed object or an unknown name.
FaultSpec spec_from_value(const json::Value& v);

}  // namespace rpm::faults
