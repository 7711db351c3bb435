#ifndef SENSJOIN_SENSJOIN_H_
#define SENSJOIN_SENSJOIN_H_

/// \mainpage SENS-Join
///
/// An open-source reproduction of "Towards Efficient Processing of
/// General-Purpose Joins in Sensor Networks" (Stern, Buchmann, Böhm;
/// ICDE 2009): an energy-efficient general-purpose join operator for
/// wireless sensor networks, evaluated on a from-scratch discrete-event WSN
/// simulator.
///
/// Typical use goes through sensjoin::testbed::Testbed:
///
/// \code
///   sensjoin::testbed::TestbedParams params;
///   auto testbed = sensjoin::testbed::Testbed::Create(params).value();
///   auto query = testbed->ParseQuery(
///       "SELECT A.hum, B.hum FROM sensors A, sensors B "
///       "WHERE |A.temp - B.temp| < 0.3 "
///       "AND distance(A.x, A.y, B.x, B.y) > 100 ONCE").value();
///   auto executor = testbed->MakeSensJoin();
///   auto report = executor.Execute(query, /*epoch=*/0).value();
/// \endcode

#include "sensjoin/common/status.h"           // IWYU pragma: export
#include "sensjoin/common/statusor.h"         // IWYU pragma: export
#include "sensjoin/data/network_data.h"       // IWYU pragma: export
#include "sensjoin/data/relation.h"           // IWYU pragma: export
#include "sensjoin/join/continuous.h"         // IWYU pragma: export
#include "sensjoin/join/execution_report.h"   // IWYU pragma: export
#include "sensjoin/join/external_join.h"      // IWYU pragma: export
#include "sensjoin/join/planner.h"            // IWYU pragma: export
#include "sensjoin/join/protocol.h"           // IWYU pragma: export
#include "sensjoin/join/result.h"             // IWYU pragma: export
#include "sensjoin/join/sens_join.h"          // IWYU pragma: export
#include "sensjoin/net/routing_tree.h"        // IWYU pragma: export
#include "sensjoin/net/topology.h"            // IWYU pragma: export
#include "sensjoin/obs/export.h"              // IWYU pragma: export
#include "sensjoin/obs/metrics.h"             // IWYU pragma: export
#include "sensjoin/obs/trace.h"               // IWYU pragma: export
#include "sensjoin/query/query.h"             // IWYU pragma: export
#include "sensjoin/query/signature.h"         // IWYU pragma: export
#include "sensjoin/service/join_service.h"    // IWYU pragma: export
#include "sensjoin/service/query_registry.h"  // IWYU pragma: export
#include "sensjoin/service/stream_summary.h"  // IWYU pragma: export
#include "sensjoin/sim/fault_model.h"         // IWYU pragma: export
#include "sensjoin/sim/simulator.h"           // IWYU pragma: export
#include "sensjoin/testbed/parallel.h"        // IWYU pragma: export
#include "sensjoin/testbed/report.h"          // IWYU pragma: export
#include "sensjoin/testbed/testbed.h"         // IWYU pragma: export

#endif  // SENSJOIN_SENSJOIN_H_
