// Former names of QueryEngine and EngineOptions (engine/query_engine.h),
// kept only for bench/pvbench/driver.cc; ROADMAP item 2's leftovers delete
// them and this header once that file changes.
#ifndef PVERIFY_ENGINE_SHARDED_ENGINE_H_
#define PVERIFY_ENGINE_SHARDED_ENGINE_H_

#include "engine/query_engine.h"

namespace pverify {

using ShardedQueryEngine = QueryEngine;
using ShardedEngineOptions = EngineOptions;

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SHARDED_ENGINE_H_
