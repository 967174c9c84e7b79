/*! \file eq5.cpp
 *  \brief Workload `eq5`: the paper's Eq. (5) pipeline, compiled cold.
 *
 *  Every input runs `tbs; revsimp; rptm; tpar` on a fresh pass_manager
 *  with the process-wide subcircuit library cleared first, as for a user
 *  who runs the flow once per program.  tbs, rptm, tpar and the
 *  library's first-sighting admission do the work; the router, server
 *  and simulator do none.
 */
#include "workload.hpp"

#include "library/subcircuit_library.hpp"
#include "pipeline/compilation_cache.hpp"
#include "pipeline/pass_manager.hpp"

#include <cstdio>
#include <optional>

namespace qbench
{
namespace
{

const char* const tail = "tbs; revsimp; rptm; tpar";

struct eq5_input
{
  std::string spec;
  std::optional<std::vector<uint64_t>> images; /*!< drawn by the benchmark */
  reference_function reference;
  std::optional<uint64_t> fingerprint;         /*!< of the checked output */
};

qda::staged_ir initial_ir( const eq5_input& input )
{
  qda::staged_ir ir;
  if ( input.images )
  {
    ir.set_permutation( qda::permutation::from_vector( *input.images ) );
  }
  return ir;
}

class eq5_workload final : public workload
{
public:
  explicit eq5_workload( uint64_t seed )
  {
    rng64 rng{ seed ^ 0xe05eull };
    for ( uint32_t n : { 8u, 9u, 10u } )
    {
      add( "revgen --hwb " + std::to_string( n ), { reference_function::kind::hwb, n, 0u, {} } );
    }
    const uint64_t addend = 1u + rng.below( 255u );
    add( "revgen --adder 8 --addend " + std::to_string( addend ),
         { reference_function::kind::adder, 8u, addend, {} } );
    const uint64_t factor = 2u * rng.below( 127u ) + 3u;
    add( "revgen --mult 8 --factor " + std::to_string( factor ),
         { reference_function::kind::multiplier, 8u, factor, {} } );
    for ( int i = 0; i < 2; ++i )
    {
      auto images = random_permutation( 7u, rng );
      inputs_.push_back( { tail, images, { reference_function::kind::table, 7u, 0u, images },
                           std::nullopt } );
    }
  }

  round_stats run_round( tracer& trace ) override
  {
    round_stats stats;
    auto& library = qda::library::subcircuit_library::instance();
    tracer::scope round_span( trace, "eq5.round" );
    outputs_.clear();
    for ( const auto& input : inputs_ )
    {
      library.clear();
      auto initial = initial_ir( input );
      ++stats.attempted;
      auto previous = clock_type::now();
      qda::pass_observer observer;
      if ( trace.enabled() )
      {
        observer = [&]( size_t, const qda::staged_ir&,
                        const std::vector<qda::pass_report>& reports ) {
          const auto now = clock_type::now();
          trace.record( "pass." + reports.back().name, previous, now );
          previous = now;
        };
      }
      const auto start = clock_type::now();
      try
      {
        tracer::scope input_span( trace, "eq5.input" );
        previous = clock_type::now();
        qda::pass_manager manager;
        outputs_.push_back(
            manager.run( qda::parse_pipeline( input.spec ), std::move( initial ), {}, observer ) );
      }
      catch ( const std::exception& e )
      {
        ++stats.failed;
        outputs_.emplace_back();
        report_failure( label( input ) + ": " + e.what() );
      }
      stats.ms += ms_between( start, clock_type::now() );
      stats.compile_ms = stats.ms;
      count_layers( outputs_.back(), library.statistics(), stats.counters );
    }
    return stats;
  }

  std::string check_last_round() override
  {
    for ( size_t i = 0u; i < inputs_.size(); ++i )
    {
      auto& input = inputs_[i];
      const auto& ir = outputs_[i].ir;
      if ( !ir.quantum || !ir.reversible )
      {
        continue; /* a failed operation, counted in `failed` */
      }
      const auto fingerprint = circuit_fingerprint( ir.quantum->circuit );
      if ( input.fingerprint == fingerprint )
      {
        continue;
      }
      auto reason = check_mct( *ir.reversible, input.reference );
      if ( reason.empty() )
      {
        reason = check_clifford_t( ir.quantum->circuit, input.reference, 0x5eedull + i );
      }
      if ( !reason.empty() )
      {
        return label( input ) + ": " + reason;
      }
      if ( !input.fingerprint )
      {
        const auto q = measure_quality( ir.quantum->circuit );
        std::printf( "eq5 input %-40s T %8llu  CNOT %8llu  depth %8llu  qubits %3llu\n",
                     label( input ).c_str(), static_cast<unsigned long long>( q.t_count ),
                     static_cast<unsigned long long>( q.cnot_count ),
                     static_cast<unsigned long long>( q.depth ),
                     static_cast<unsigned long long>( q.qubits ) );
        quality_ += q;
      }
      input.fingerprint = fingerprint;
    }
    return {};
  }

  quality output_quality() const override { return quality_; }

  void probe_pipeline( tracer& trace ) override
  {
    tracer::scope probe_span( trace, "probe" );
    for ( const auto& input : inputs_ )
    {
      std::optional<qda::pipeline_spec> spec;
      {
        tracer::scope parse_span( trace, "pipeline.parse" );
        spec = qda::parse_pipeline( input.spec );
      }
      const auto initial = initial_ir( input );
      tracer::scope key_span( trace, "pipeline.key" );
      volatile auto key = qda::compute_structural_key( *spec, initial ).primary;
      (void)key;
    }
  }

private:
  void add( const std::string& generator, reference_function reference )
  {
    inputs_.push_back( { generator + "; " + tail, std::nullopt, std::move( reference ),
                         std::nullopt } );
  }

  static std::string label( const eq5_input& input )
  {
    return input.images ? "random permutation over " +
                              std::to_string( input.reference.num_vars ) + " bits"
                        : input.spec;
  }

  static void count_layers( const qda::compilation_result& result,
                            const qda::library::library_statistics& library,
                            std::map<std::string, double>& counters )
  {
    for ( const auto& report : result.reports )
    {
      if ( report.name == "tbs" )
      {
        counters["synthesis.gates"] += static_cast<double>( report.gates_after );
      }
      else if ( report.name == "revsimp" )
      {
        counters["optimization.gates_removed"] +=
            static_cast<double>( report.gates_before ) - static_cast<double>( report.gates_after );
      }
      else if ( report.name == "rptm" )
      {
        counters["mapping.helpers"] += report.helpers_after;
      }
      else if ( report.name == "tpar" && report.statistics_before && report.statistics_after )
      {
        counters["phasepoly.t_removed"] +=
            static_cast<double>( report.statistics_before->t_count ) -
            static_cast<double>( report.statistics_after->t_count );
      }
    }
    counters["library.hits"] += static_cast<double>( library.hits );
    counters["library.misses"] += static_cast<double>( library.misses );
    counters["library.admits"] += static_cast<double>( library.admits );
  }

  std::vector<eq5_input> inputs_;
  std::vector<qda::compilation_result> outputs_;
  quality quality_;
};

} // namespace

std::unique_ptr<workload> make_eq5( uint64_t seed )
{
  return std::make_unique<eq5_workload>( seed );
}

} // namespace qbench
