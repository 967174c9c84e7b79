/*! \file workload.hpp
 *  \brief What the run loop needs from a workload: rounds, checks, counts.
 *
 *  A round runs every input of the workload once.  Rounds of one run
 *  repeat the same inputs, so every round does the same work and the
 *  median round is a steady figure.
 */
#pragma once

#include "checker.hpp"
#include "trace.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qbench
{

struct round_stats
{
  double ms = 0.0;         /*!< timed work of the round: inputs in, results out */
  double compile_ms = 0.0; /*!< the part of `ms` that turns inputs into circuits */
  uint64_t attempted = 0u;
  uint64_t failed = 0u;
  /*! Per-layer counts of this round (read from the library's public
   *  results and statistics snapshots). */
  std::map<std::string, double> counters;
};

class workload
{
public:
  virtual ~workload() = default;

  virtual round_stats run_round( tracer& trace ) = 0;

  /*! Checks the outputs of the round just run with the independent
   *  checker (the first time in full; afterwards outputs identical to
   *  checked ones pass, others are checked in full).  Empty = correct. */
  virtual std::string check_last_round() = 0;

  /*! Summed gate counts of the final circuits of one round (for `serve`,
   *  of the hot set's circuits, which do not change with the seed). */
  virtual quality output_quality() const = 0;

  /*! Traced runs only: times the spec parser and the structural key on
   *  the round's inputs, outside the timed round. */
  virtual void probe_pipeline( tracer& ) {}
};

std::unique_ptr<workload> make_eq5( uint64_t seed );
std::unique_ptr<workload> make_hidden_shift( uint64_t seed );
std::unique_ptr<workload> make_serve( uint64_t seed );

/*! Small deterministic generator; the same seed gives the same inputs. */
struct rng64
{
  uint64_t state = 0u;
  uint64_t next();
  uint64_t below( uint64_t bound ) { return next() % bound; }
};

std::vector<uint64_t> random_permutation( uint32_t num_vars, rng64& rng );

/*! Prints a failed operation's reason to stderr (once per reason). */
void report_failure( const std::string& reason );

/*! Median of a sample (0 for an empty one). */
double median( std::vector<double> values );

/*! Nearest-rank percentile, p in (0, 100]. */
double percentile( std::vector<double> values, double p );

} // namespace qbench
