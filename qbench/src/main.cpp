/*! \file main.cpp
 *  \brief One run of one workload: set-up, timed rounds, checks, metrics.
 *
 *  Usage: qbench --workload eq5|hidden_shift|serve --seed N --seconds S
 *                --trace 0|1
 *         qbench --selftest
 *
 *  The first round is the warm-up; the time from process start to its
 *  end is `setup_s`.  Rounds then repeat until S seconds have passed, and
 *  every timed figure is the median over those rounds.  The last line of
 *  stdout is one JSON object: correct, attempted, failed and the metrics
 *  (end-to-end ones untraced, per-layer ones traced).
 */
#include "checker.hpp"
#include "selftest.hpp"
#include "trace.hpp"
#include "workload.hpp"

#include "simulator/kernels.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

extern char** environ;

namespace qbench
{

uint64_t rng64::next()
{
  uint64_t z = ( state += 0x9e3779b97f4a7c15ull );
  z = ( z ^ ( z >> 30 ) ) * 0xbf58476d1ce4e5b9ull;
  z = ( z ^ ( z >> 27 ) ) * 0x94d049bb133111ebull;
  return z ^ ( z >> 31 );
}

std::vector<uint64_t> random_permutation( uint32_t num_vars, rng64& rng )
{
  std::vector<uint64_t> images( uint64_t{ 1 } << num_vars );
  for ( uint64_t i = 0u; i < images.size(); ++i )
  {
    images[i] = i;
  }
  for ( uint64_t i = images.size(); i > 1u; --i )
  {
    std::swap( images[i - 1u], images[rng.below( i )] );
  }
  return images;
}

void report_failure( const std::string& reason )
{
  static std::set<std::string> reported;
  if ( reported.insert( reason ).second )
  {
    std::fprintf( stderr, "failed operation: %s\n", reason.c_str() );
  }
}

double median( std::vector<double> values )
{
  if ( values.empty() )
  {
    return 0.0;
  }
  std::sort( values.begin(), values.end() );
  const size_t mid = values.size() / 2u;
  return values.size() % 2u ? values[mid] : 0.5 * ( values[mid - 1u] + values[mid] );
}

double percentile( std::vector<double> values, double p )
{
  if ( values.empty() )
  {
    return 0.0;
  }
  std::sort( values.begin(), values.end() );
  const auto rank = static_cast<size_t>( std::ceil( p / 100.0 * values.size() ) );
  return values[std::clamp<size_t>( rank, 1u, values.size() ) - 1u];
}

namespace
{

/*! Per-layer metrics, each with its unit.  Span-timed layers take the
 *  self time of the spans listed for them. */
struct layer_metric
{
  const char* name;
  const char* unit;
  std::vector<const char*> spans; /*!< empty: a counter the workload reports */
};

const std::vector<layer_metric>& layer_metrics()
{
  static const std::vector<layer_metric> metrics = {
      { "synthesis.ms", "ms", { "pass.tbs", "pass.dbs" } },
      { "synthesis.gates", "count", {} },
      { "optimization.revsimp_ms", "ms", { "pass.revsimp" } },
      { "optimization.gates_removed", "count", {} },
      { "mapping.rptm_ms", "ms", { "pass.rptm" } },
      { "mapping.lower_ms", "ms", { "mapping.lower" } },
      { "mapping.route_ms", "ms", { "mapping.route" } },
      { "mapping.helpers", "count", {} },
      { "mapping.swaps", "count", {} },
      { "phasepoly.tpar_ms", "ms", { "pass.tpar", "phasepoly.tpar" } },
      { "phasepoly.t_removed", "count", {} },
      { "library.hits", "count", {} },
      { "library.misses", "count", {} },
      { "library.admits", "count", {} },
      { "library.hit_ratio", "ratio", {} },
      { "pipeline.parse_ms", "ms", { "pipeline.parse" } },
      { "pipeline.key_ms", "ms", { "pipeline.key" } },
      { "server.submit_ms", "ms", { "server.submit" } },
      { "server.queue_wait_ms", "ms", {} },
      { "server.latency_p50_ms", "ms", {} },
      { "server.latency_p99_ms", "ms", {} },
      { "server.compiled", "count", {} },
      { "server.cache_hits", "count", {} },
      { "server.coalesced", "count", {} },
      { "server.prefix_hits", "count", {} },
      { "server.hit_ratio", "ratio", {} },
      { "simulator.fusion_ms", "ms", { "simulator.compile" } },
      { "simulator.fused_ops", "count", {} },
      { "simulator.apply_ms", "ms", { "simulator.run_program" } },
      { "simulator.sample_ms", "ms", { "simulator.sample" } },
      { "core.oracle_ms", "ms", { "core.oracle" } },
      { "bench.compile_ms", "ms", {} },
      { "bench.round_ms", "ms", {} } };
  return metrics;
}

struct options
{
  std::string workload;
  uint64_t seed = 0u;
  double seconds = 0.0;
  bool trace = false;
  bool selftest = false;
};

bool parse_options( int argc, char** argv, options& opts )
{
  bool have_seed = false, have_seconds = false, have_trace = false;
  for ( int i = 1; i < argc; ++i )
  {
    const std::string arg = argv[i];
    if ( arg == "--selftest" )
    {
      opts.selftest = true;
      continue;
    }
    if ( i + 1 >= argc )
    {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if ( arg == "--workload" )
    {
      opts.workload = value;
    }
    else if ( arg == "--seed" )
    {
      opts.seed = std::strtoull( value.c_str(), &end, 10 );
      have_seed = *end == '\0' && !value.empty();
    }
    else if ( arg == "--seconds" )
    {
      opts.seconds = std::strtod( value.c_str(), &end );
      have_seconds = *end == '\0' && opts.seconds > 0.0 && opts.seconds <= 600.0;
    }
    else if ( arg == "--trace" )
    {
      opts.trace = value == "1";
      have_trace = value == "0" || value == "1";
    }
    else
    {
      return false;
    }
  }
  return opts.selftest || ( !opts.workload.empty() && have_seed && have_seconds && have_trace );
}

/*! Run-to-run state must not leak in through the library's settings. */
void clear_library_environment()
{
  std::vector<std::string> names;
  for ( char** env = environ; *env; ++env )
  {
    if ( std::strncmp( *env, "QDA_", 4u ) == 0 )
    {
      const char* eq = std::strchr( *env, '=' );
      names.emplace_back( *env, eq ? static_cast<size_t>( eq - *env ) : std::strlen( *env ) );
    }
  }
  for ( const auto& name : names )
  {
    unsetenv( name.c_str() );
  }
}

double peak_rss_mb()
{
  rusage usage{};
  getrusage( RUSAGE_SELF, &usage );
  return static_cast<double>( usage.ru_maxrss ) / 1024.0; /* ru_maxrss is in KiB */
}

void print_metric( bool& first, const char* name, double value, const char* unit )
{
  std::printf( "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ", name, value,
               unit );
  first = false;
}

} // namespace

} // namespace qbench

int main( int argc, char** argv )
{
  using namespace qbench;
  const auto process_start = clock_type::now();

  options opts;
  if ( !parse_options( argc, argv, opts ) )
  {
    std::fprintf( stderr, "usage: qbench --workload eq5|hidden_shift|serve --seed N "
                          "--seconds S --trace 0|1\n       qbench --selftest\n" );
    return 2;
  }
  clear_library_environment();
  qda::sim::set_num_threads( 1u );
  if ( opts.selftest )
  {
    return run_selftest() == 0 ? 0 : 1;
  }

  std::unique_ptr<workload> wl;
  if ( opts.workload == "eq5" )
  {
    wl = make_eq5( opts.seed );
  }
  else if ( opts.workload == "hidden_shift" )
  {
    wl = make_hidden_shift( opts.seed );
  }
  else if ( opts.workload == "serve" )
  {
    wl = make_serve( opts.seed );
  }
  else
  {
    std::fprintf( stderr, "unknown workload '%s'\n", opts.workload.c_str() );
    return 2;
  }

  tracer trace( opts.trace );
  uint64_t attempted = 0u, failed = 0u;
  std::string verdict;
  const auto account = [&]( const round_stats& stats ) {
    attempted += stats.attempted;
    failed += stats.failed;
    if ( verdict.empty() )
    {
      verdict = wl->check_last_round();
    }
    if ( opts.trace )
    {
      wl->probe_pipeline( trace );
    }
  };

  /* set-up: inputs and the warm-up round, timed from process start */
  trace.set_round( 0u );
  const auto warm_up = wl->run_round( trace );
  const double setup_s = ms_between( process_start, clock_type::now() ) / 1000.0;
  account( warm_up );

  std::vector<round_stats> rounds;
  const auto measure_start = clock_type::now();
  while ( rounds.empty() || ms_between( measure_start, clock_type::now() ) < opts.seconds * 1000.0 )
  {
    trace.set_round( static_cast<uint32_t>( rounds.size() + 1u ) );
    rounds.push_back( wl->run_round( trace ) );
    account( rounds.back() );
  }
  const double rss_mb = peak_rss_mb();

  /* the checker must still catch every planted fault */
  if ( verdict.empty() && run_selftest() != 0 )
  {
    verdict = "checker self-test missed a planted fault";
  }
  if ( !verdict.empty() )
  {
    std::printf( "check FAILED: %s\n", verdict.c_str() );
  }

  std::vector<double> round_ms, compile_ms;
  for ( const auto& r : rounds )
  {
    round_ms.push_back( r.ms );
    compile_ms.push_back( r.compile_ms );
  }
  std::printf( "workload %s, seed %llu: %zu timed rounds, median round %.3f ms "
               "(min %.3f, max %.3f), set-up %.3f s\n",
               opts.workload.c_str(), static_cast<unsigned long long>( opts.seed ), rounds.size(),
               median( round_ms ), *std::min_element( round_ms.begin(), round_ms.end() ),
               *std::max_element( round_ms.begin(), round_ms.end() ), setup_s );

  bool first = true;
  if ( !opts.trace )
  {
    const auto q = wl->output_quality();
    std::printf( "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                 verdict.empty() ? "true" : "false", static_cast<unsigned long long>( attempted ),
                 static_cast<unsigned long long>( failed ) );
    print_metric( first, "setup_s", setup_s, "s" );
    print_metric( first, "compile_ms", median( compile_ms ), "ms" );
    print_metric( first, "round_ms", median( round_ms ), "ms" );
    print_metric( first, "t_count", static_cast<double>( q.t_count ), "count" );
    print_metric( first, "cnot_count", static_cast<double>( q.cnot_count ), "count" );
    print_metric( first, "depth", static_cast<double>( q.depth ), "count" );
    print_metric( first, "qubits", static_cast<double>( q.qubits ), "count" );
    print_metric( first, "peak_rss_mb", rss_mb, "MB" );
    std::printf( "}}\n" );
    return 0;
  }

  /* traced: per-layer medians over the timed rounds */
  std::map<std::string, std::vector<double>> per_round;
  std::map<std::string, std::vector<double>> span_self;
  for ( size_t i = 0u; i < rounds.size(); ++i )
  {
    const auto self = trace.self_ms_in_round( static_cast<uint32_t>( i + 1u ) );
    for ( const auto& [name, ms] : self )
    {
      span_self[name].push_back( ms );
    }
    auto counters = rounds[i].counters;
    const double hits = counters["library.hits"];
    const double lookups = hits + counters["library.misses"];
    counters["library.hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    counters["bench.compile_ms"] = rounds[i].compile_ms;
    counters["bench.round_ms"] = rounds[i].ms;
    for ( const auto& m : layer_metrics() )
    {
      double value = 0.0;
      if ( m.spans.empty() )
      {
        value = counters[m.name];
      }
      for ( const auto* span : m.spans )
      {
        const auto it = self.find( span );
        value += it == self.end() ? 0.0 : it->second;
      }
      per_round[m.name].push_back( value );
    }
  }

  std::printf( "%-28s %12s  (self time per round, median over %zu rounds)\n", "span", "self ms",
               rounds.size() );
  for ( auto& [name, values] : span_self )
  {
    values.resize( rounds.size(), 0.0 );
    std::printf( "%-28s %12.3f\n", name.c_str(), median( values ) );
  }
  std::printf( "%-28s %12s %s\n", "layer metric", "median", "unit" );
  for ( const auto& m : layer_metrics() )
  {
    std::printf( "%-28s %12.4f %s\n", m.name, median( per_round[m.name] ), m.unit );
  }

  mkdir( ".bench_out", 0755 );
  const auto trace_path = ".bench_out/trace-" + opts.workload + "-seed" +
                          std::to_string( opts.seed ) + ".json";
  if ( !trace.write_json( trace_path ) )
  {
    std::fprintf( stderr, "could not write %s\n", trace_path.c_str() );
  }

  std::printf( "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
               verdict.empty() ? "true" : "false", static_cast<unsigned long long>( attempted ),
               static_cast<unsigned long long>( failed ) );
  for ( const auto& m : layer_metrics() )
  {
    print_metric( first, m.name, median( per_round[m.name] ), m.unit );
  }
  std::printf( "}}\n" );
  return 0;
}
