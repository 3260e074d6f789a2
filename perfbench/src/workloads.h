// The three workloads.  Each runs closed loop from one client thread on its
// own freshly loaded database and fills `report`; the untraced run reports
// end-to-end metrics, the traced run (args.trace) per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// paper_mem (disk = false) and paper_disk (disk = true): SetIndex with its
// defaults over the paper's Table-2 database, read-only selections plus a
// periodic join.
void RunPaperWorkload(const Args& args, bool disk, RunReport* report);

// student_churn: the Student class as a Database with WAL, snapshots and
// telemetry on, writes beside live and snapshot reads, ending in an unclean
// stop and recovery.
void RunStudentChurn(const Args& args, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
