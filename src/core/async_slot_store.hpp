// edgetrain: forwarding header. The slot store with its disk tier lives in
// core/tiered_slot_store.hpp; this name stays for code that includes it.
#pragma once

#include "core/tiered_slot_store.hpp"
