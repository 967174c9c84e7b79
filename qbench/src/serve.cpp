/*! \file serve.cpp
 *  \brief Workload `serve`: a closed-loop client against the compile server.
 *
 *  One client thread keeps a fixed number of requests in flight against
 *  a `compile_server` with two workers.  Each round starts a fresh server
 *  with the subcircuit library cleared and sends the same request stream:
 *  a zipf draw over a hot set of ms-scale pipelines, each sent in one of
 *  several equivalent spellings, where pipelines share prefixes, plus a
 *  trickle of specs the server has not seen.  The result cache,
 *  coalescing, prefix reuse and library hits do the work.
 */
#include "workload.hpp"

#include "library/subcircuit_library.hpp"
#include "pipeline/compilation_cache.hpp"
#include "server/compile_server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <set>
#include <unordered_map>

namespace qbench
{
namespace
{

constexpr size_t requests_per_round = 4800u;
constexpr size_t trickle_per_round = 48u;
constexpr size_t in_flight = 8u;
constexpr uint32_t workers = 2u;
constexpr double zipf_exponent = 1.1;

const std::vector<std::string> tails = { "tbs; rptm", "tbs; revsimp; rptm",
                                         "tbs; revsimp; rptm; tpar", "dbs; rptm; tpar" };

struct pipeline
{
  std::string generator; /*!< "revgen --adder 5 --addend 3" */
  std::string tail;
  reference_function reference;
  std::optional<uint64_t> fingerprint; /*!< of the checked served circuit */

  std::string text() const { return generator + "; " + tail; }
};

/*! Equivalent spellings a scripted client might send. */
std::string respell( const pipeline& p, uint64_t variant )
{
  std::string spec = p.text();
  const auto replace_all = [&]( const std::string& from, const std::string& to ) {
    for ( size_t pos = 0u; ( pos = spec.find( from, pos ) ) != std::string::npos;
          pos += to.size() )
    {
      spec.replace( pos, from.size(), to );
    }
  };
  switch ( variant % 4u )
  {
  case 1u:
    replace_all( "; ", " ;  ; " );
    return "  " + spec + " ;";
  case 2u:
    replace_all( "; ", ";" );
    return spec + "\n";
  case 3u:
  {
    /* options in another order (two-option generators), else wider gaps */
    const auto second = p.generator.find( " --", 7u );
    if ( p.reference.type != reference_function::kind::hwb && second != std::string::npos )
    {
      return "revgen" + p.generator.substr( second ) +
             p.generator.substr( 6u, second - 6u ) + "; " + p.tail;
    }
    replace_all( " ", "   " );
    return spec;
  }
  default:
    return spec;
  }
}

struct request
{
  size_t pipeline = 0u; /*!< index into pipelines_ */
  std::string text;
};

class serve_workload final : public workload
{
public:
  explicit serve_workload( uint64_t seed )
  {
    rng64 rng{ seed ^ 0x5e7feull };
    std::set<std::string> seen;
    const auto add = [&]( std::string generator, reference_function reference,
                          const std::string& tail ) {
      pipeline p{ std::move( generator ), tail, std::move( reference ), std::nullopt };
      if ( !seen.insert( p.text() ).second )
      {
        return false;
      }
      pipelines_.push_back( std::move( p ) );
      return true;
    };
    const auto adder = [&]( uint32_t n, uint64_t addend ) {
      return std::make_pair( "revgen --adder " + std::to_string( n ) + " --addend " +
                                 std::to_string( addend ),
                             reference_function{ reference_function::kind::adder, n, addend, {} } );
    };
    const auto multiplier = [&]( uint32_t n, uint64_t factor ) {
      return std::make_pair(
          "revgen --mult " + std::to_string( n ) + " --factor " + std::to_string( factor ),
          reference_function{ reference_function::kind::multiplier, n, factor, {} } );
    };

    /* hot set: 7 fixed generators x 4 tails, ranked by a seeded shuffle;
     * fixed so that the summed gate counts, taken over the hot set, do
     * not change with the seed */
    std::vector<std::pair<std::string, reference_function>> generators;
    for ( uint32_t n : { 4u, 5u, 6u } )
    {
      generators.emplace_back( "revgen --hwb " + std::to_string( n ),
                               reference_function{ reference_function::kind::hwb, n, 0u, {} } );
    }
    generators.push_back( adder( 5u, 11u ) );
    generators.push_back( adder( 6u, 37u ) );
    generators.push_back( multiplier( 5u, 11u ) );
    generators.push_back( multiplier( 6u, 27u ) );
    for ( const auto& [generator, reference] : generators )
    {
      for ( const auto& tail : tails )
      {
        add( generator, reference, tail );
      }
    }
    const size_t hot = hot_pipelines_ = pipelines_.size();
    std::vector<size_t> rank( hot );
    for ( size_t i = 0u; i < hot; ++i )
    {
      rank[i] = i;
    }
    for ( size_t i = hot; i > 1u; --i )
    {
      std::swap( rank[i - 1u], rank[rng.below( i )] );
    }
    std::vector<double> cumulative;
    double total = 0.0;
    for ( size_t r = 0u; r < hot; ++r )
    {
      total += 1.0 / std::pow( static_cast<double>( r + 1u ), zipf_exponent );
      cumulative.push_back( total );
    }

    /* trickle: specs outside the hot set, each sent once per round */
    std::vector<size_t> trickle;
    while ( trickle.size() < trickle_per_round )
    {
      const uint32_t n = 5u + static_cast<uint32_t>( rng.below( 2u ) );
      const auto& tail = tails[rng.below( tails.size() )];
      const auto generator = rng.below( 2u ) == 0u
                                 ? adder( n, 1u + rng.below( ( 1u << n ) - 1u ) )
                                 : multiplier( n, 2u * rng.below( ( 1u << ( n - 1u ) ) - 1u ) + 3u );
      if ( add( generator.first, generator.second, tail ) )
      {
        trickle.push_back( pipelines_.size() - 1u );
      }
    }

    const size_t every = requests_per_round / trickle_per_round;
    for ( size_t i = 0u; i < requests_per_round; ++i )
    {
      size_t index = 0u;
      if ( i % every == every / 2u && i / every < trickle.size() )
      {
        index = trickle[i / every];
      }
      else
      {
        const double u = static_cast<double>( rng.next() >> 11 ) * 0x1.0p-53 * total;
        const auto r = static_cast<size_t>(
            std::upper_bound( cumulative.begin(), cumulative.end(), u ) - cumulative.begin() );
        index = rank[std::min( r, hot - 1u )];
      }
      stream_.push_back( { index, respell( pipelines_[index], rng.below( 4u ) ) } );
    }
    std::set<size_t> distinct;
    for ( const auto& req : stream_ )
    {
      distinct.insert( req.pipeline );
    }
    distinct_pipelines_ = distinct.size();
  }

  round_stats run_round( tracer& trace ) override
  {
    round_stats stats;
    qda::library::subcircuit_library::instance().clear();
    qda::server::server_options options;
    options.num_workers = workers;
    qda::server::compile_server server( options );

    struct pending
    {
      std::future<qda::server::compile_response> future;
      clock_type::time_point sent;
      size_t request = 0u;
    };
    std::deque<pending> window;
    std::vector<double> latencies;
    latencies.reserve( stream_.size() );
    responses_.assign( stream_.size(), nullptr );

    const auto harvest = [&]( pending& p ) {
      auto response = p.future.get();
      latencies.push_back( ms_between( p.sent, clock_type::now() ) );
      if ( response.ok() && response.result )
      {
        responses_[p.request] = response.result;
      }
      else
      {
        ++stats.failed;
        report_failure( "request '" + stream_[p.request].text + "': " + response.error_message );
      }
    };

    const auto start = clock_type::now();
    {
      tracer::scope round_span( trace, "serve.round" );
      size_t next = 0u;
      while ( next < stream_.size() || !window.empty() )
      {
        for ( auto it = window.begin(); it != window.end(); )
        {
          if ( it->future.wait_for( std::chrono::seconds( 0 ) ) == std::future_status::ready )
          {
            harvest( *it );
            it = window.erase( it );
          }
          else
          {
            ++it;
          }
        }
        if ( next < stream_.size() && window.size() < in_flight )
        {
          ++stats.attempted;
          const auto sent = clock_type::now();
          try
          {
            tracer::scope submit_span( trace, "server.submit" );
            window.push_back( { server.submit( stream_[next].text ), sent, next } );
          }
          catch ( const std::exception& e )
          {
            ++stats.failed;
            report_failure( "submit '" + stream_[next].text + "': " + e.what() );
          }
          ++next;
        }
        else if ( !window.empty() )
        {
          window.front().future.wait();
        }
      }
    }
    stats.ms = stats.compile_ms = ms_between( start, clock_type::now() );

    const auto s = server.statistics();
    server.shutdown();
    compiled_ = s.compiled;
    auto& c = stats.counters;
    c["server.compiled"] = static_cast<double>( s.compiled );
    c["server.cache_hits"] = static_cast<double>( s.cache_hits );
    c["server.coalesced"] = static_cast<double>( s.coalesced );
    c["server.prefix_hits"] = static_cast<double>( s.prefix_hits );
    c["server.hit_ratio"] = s.hit_rate();
    c["server.queue_wait_ms"] = s.total_queue_wait_ms;
    c["server.latency_p50_ms"] = percentile( latencies, 50.0 );
    c["server.latency_p99_ms"] = percentile( latencies, 99.0 );
    c["library.hits"] = static_cast<double>( s.library.hits );
    c["library.misses"] = static_cast<double>( s.library.misses );
    c["library.admits"] = static_cast<double>( s.library.admits );
    return stats;
  }

  std::string check_last_round() override
  {
    if ( auto reason = check_compiled_count( compiled_, distinct_pipelines_ ); !reason.empty() )
    {
      return reason;
    }
    /* every response of one pipeline must be the same circuit; the first
     * time a pipeline's circuit is seen it is checked in full */
    std::unordered_map<const qda::compilation_result*, uint64_t> fingerprints;
    std::vector<std::optional<uint64_t>> round_fingerprint( pipelines_.size() );
    for ( size_t i = 0u; i < stream_.size(); ++i )
    {
      const auto& result = responses_[i];
      if ( !result )
      {
        continue; /* a failed operation, counted in `failed` */
      }
      auto& p = pipelines_[stream_[i].pipeline];
      if ( !result->ir.quantum || !result->ir.reversible )
      {
        return "'" + stream_[i].text + "' was served without a Clifford+T circuit";
      }
      auto [it, fresh] = fingerprints.try_emplace( result.get(), 0u );
      if ( fresh )
      {
        it->second = circuit_fingerprint( result->ir.quantum->circuit );
      }
      auto& seen = round_fingerprint[stream_[i].pipeline];
      if ( seen && *seen != it->second )
      {
        return "two spellings of '" + p.text() + "' were served different circuits";
      }
      seen = it->second;
      if ( p.fingerprint == it->second )
      {
        continue;
      }
      auto reason = check_mct( *result->ir.reversible, p.reference );
      if ( reason.empty() )
      {
        reason = check_clifford_t( result->ir.quantum->circuit, p.reference,
                                   0x5e7e + stream_[i].pipeline );
      }
      if ( !reason.empty() )
      {
        return "'" + p.text() + "': " + reason;
      }
      if ( !p.fingerprint && stream_[i].pipeline < hot_pipelines_ )
      {
        quality_ += measure_quality( result->ir.quantum->circuit );
      }
      p.fingerprint = it->second;
    }
    return {};
  }

  quality output_quality() const override { return quality_; }

  void probe_pipeline( tracer& trace ) override
  {
    tracer::scope probe_span( trace, "probe" );
    const qda::staged_ir empty;
    for ( const auto& req : stream_ )
    {
      std::optional<qda::pipeline_spec> spec;
      {
        tracer::scope parse_span( trace, "pipeline.parse" );
        spec = qda::parse_pipeline( req.text );
      }
      tracer::scope key_span( trace, "pipeline.key" );
      volatile auto key = qda::compute_structural_key( *spec, empty ).primary;
      (void)key;
    }
  }

private:
  std::vector<pipeline> pipelines_;
  std::vector<request> stream_;
  size_t hot_pipelines_ = 0u; /*!< pipelines_[0, hot) are the hot set */
  size_t distinct_pipelines_ = 0u;
  std::vector<std::shared_ptr<const qda::compilation_result>> responses_;
  uint64_t compiled_ = 0u;
  quality quality_;
};

} // namespace

std::unique_ptr<workload> make_serve( uint64_t seed )
{
  return std::make_unique<serve_workload>( seed );
}

} // namespace qbench
