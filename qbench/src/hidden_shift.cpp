/*! \file hidden_shift.cpp
 *  \brief Workload `hidden_shift`: the paper's demonstration on IBM QX5.
 *
 *  Each instance is a Maiorana-McFarland bent function f(x, y) =
 *  x . pi(y) xor h(y) with a planted shift s, all drawn by the benchmark.
 *  The circuit is built by `hidden_shift_circuit_mm`, lowered to
 *  Clifford+T under the device's 16-qubit budget, tpar'd, routed by
 *  SABRE onto `ibm_qx5` and sampled on the statevector simulator.
 *  Routing and simulation do most of the work.
 *
 *  The functions (pi, h) are drawn from a fixed seed and the shifts from
 *  the run's seed.  Circuit size, and with it the cost of a round, varies
 *  by about 10% from one random function to the next, which would swamp
 *  the run-to-run comparison; a shift only changes single-qubit X gates,
 *  so rounds cost the same for every seed while the outputs still differ.
 */
#include "workload.hpp"

#include "core/bent.hpp"
#include "core/hidden_shift.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/coupling_map.hpp"
#include "mapping/router.hpp"
#include "phasepoly/phasepoly.hpp"
#include "simulator/fusion.hpp"
#include "simulator/statevector.hpp"

#include <cstdio>
#include <random>

namespace qbench
{
namespace
{

constexpr uint32_t device_qubits = 16u;
constexpr uint32_t shots_per_instance = 256u;

struct instance
{
  qda::mm_bent_function f;
  uint64_t shift = 0u;
  std::optional<uint64_t> fingerprint; /*!< of the checked routed circuit */
};

struct instance_output
{
  std::optional<qda::qcircuit> optimized; /*!< Clifford+T before routing */
  std::optional<qda::qcircuit> routed;
  std::vector<uint64_t> shots;
};

uint64_t t_gates( const qda::qcircuit& circuit )
{
  return measure_quality( circuit ).t_count;
}

class hidden_shift_workload final : public workload
{
public:
  explicit hidden_shift_workload( uint64_t seed ) : device_( qda::coupling_map::ibm_qx5() )
  {
    rng64 functions{ 0x5b1f7ull };
    rng64 shifts{ seed ^ 0x5b1f7ull };
    for ( uint32_t half_vars : { 4u, 4u, 5u, 5u, 6u, 6u } )
    {
      const auto images = random_permutation( half_vars, functions );
      qda::truth_table h( half_vars );
      for ( uint64_t y = 0u; y < ( uint64_t{ 1 } << half_vars ); ++y )
      {
        h.set_bit( y, functions.below( 2u ) == 1u );
      }
      instances_.push_back( { qda::mm_bent_function( qda::permutation::from_vector( images ), h ),
                              shifts.below( uint64_t{ 1 } << ( 2u * half_vars ) ), std::nullopt } );
    }
  }

  round_stats run_round( tracer& trace ) override
  {
    round_stats stats;
    tracer::scope round_span( trace, "hidden_shift.round" );
    outputs_.clear();
    for ( const auto& inst : instances_ )
    {
      ++stats.attempted;
      instance_output out;
      try
      {
        tracer::scope instance_span( trace, "hidden_shift.instance" );
        double compile_ms = 0.0;
        double run_ms = 0.0;
        const auto timed = [&]( double& total, const char* name, auto&& body ) {
          tracer::scope span( trace, name );
          const auto start = clock_type::now();
          body();
          total += ms_between( start, clock_type::now() );
        };

        std::optional<qda::qcircuit> logical;
        timed( compile_ms, "core.oracle",
               [&] { logical = qda::hidden_shift_circuit_mm( inst.f, inst.shift ); } );
        std::optional<qda::clifford_t_result> lowered;
        timed( compile_ms, "mapping.lower", [&] {
          qda::clifford_t_options options;
          options.max_qubits = device_qubits;
          lowered = qda::lower_multi_controlled_gates( *logical, options );
        } );
        const auto t_before = t_gates( lowered->circuit );
        timed( compile_ms, "phasepoly.tpar",
               [&] { qda::phasepoly::tpar_in_place( lowered->circuit ); } );
        stats.counters["phasepoly.t_removed"] +=
            static_cast<double>( t_before ) - static_cast<double>( t_gates( lowered->circuit ) );
        stats.counters["mapping.helpers"] += lowered->num_helper_qubits;
        std::optional<qda::routing_result> routed;
        timed( compile_ms, "mapping.route",
               [&] { routed = qda::route_circuit( lowered->circuit, device_ ); } );
        stats.counters["mapping.swaps"] += static_cast<double>( routed->added_swaps );

        std::vector<uint32_t> measured;
        std::optional<qda::sim::program> program;
        timed( run_ms, "simulator.compile", [&] {
          program = qda::sim::compile_unitary_prefix( routed->circuit, measured );
        } );
        stats.counters["simulator.fused_ops"] += static_cast<double>( program->ops.size() );
        std::optional<qda::statevector_simulator> simulator;
        timed( run_ms, "simulator.run_program", [&] {
          simulator.emplace( routed->circuit.num_qubits() );
          simulator->run_program( *program );
        } );
        timed( run_ms, "simulator.sample", [&] {
          const qda::shot_sampler sampler( *simulator );
          std::mt19937_64 shot_rng( inst.shift + 1u );
          for ( uint32_t shot = 0u; shot < shots_per_instance; ++shot )
          {
            const uint64_t full = sampler.sample( shot_rng );
            uint64_t key = 0u;
            for ( size_t i = 0u; i < measured.size(); ++i )
            {
              key |= ( ( full >> measured[i] ) & 1u ) << i;
            }
            out.shots.push_back( key );
          }
        } );
        stats.ms += compile_ms + run_ms;
        stats.compile_ms += compile_ms;
        out.optimized = std::move( lowered->circuit );
        out.routed = std::move( routed->circuit );
      }
      catch ( const std::exception& e )
      {
        ++stats.failed;
        report_failure( "hidden shift instance over " + std::to_string( inst.f.num_vars() ) +
                        " variables: " + e.what() );
      }
      outputs_.push_back( std::move( out ) );
    }
    return stats;
  }

  std::string check_last_round() override
  {
    for ( size_t i = 0u; i < instances_.size(); ++i )
    {
      auto& inst = instances_[i];
      const auto& out = outputs_[i];
      if ( !out.routed )
      {
        continue; /* a failed operation, counted in `failed` */
      }
      const auto where = "instance " + std::to_string( i ) + " (2n = " +
                         std::to_string( inst.f.num_vars() ) + ")";
      if ( auto reason = check_shots( out.shots, inst.shift ); !reason.empty() )
      {
        return where + ": " + reason;
      }
      const auto fingerprint = circuit_fingerprint( *out.routed );
      if ( inst.fingerprint == fingerprint )
      {
        continue;
      }
      auto reason = check_qx5_legal( *out.routed );
      if ( reason.empty() )
      {
        reason = check_prepares_basis_state( *out.optimized, inst.f.num_vars(), inst.shift );
      }
      if ( !reason.empty() )
      {
        return where + ": " + reason;
      }
      if ( !inst.fingerprint )
      {
        const auto q = measure_quality( *out.routed );
        std::printf( "hidden shift %-28s T %6llu  CNOT %6llu  depth %6llu  qubits %2llu\n",
                     where.c_str(), static_cast<unsigned long long>( q.t_count ),
                     static_cast<unsigned long long>( q.cnot_count ),
                     static_cast<unsigned long long>( q.depth ),
                     static_cast<unsigned long long>( q.qubits ) );
        quality_ += q;
      }
      inst.fingerprint = fingerprint;
    }
    return {};
  }

  quality output_quality() const override { return quality_; }

private:
  qda::coupling_map device_;
  std::vector<instance> instances_;
  std::vector<instance_output> outputs_;
  quality quality_;
};

} // namespace

std::unique_ptr<workload> make_hidden_shift( uint64_t seed )
{
  return std::make_unique<hidden_shift_workload>( seed );
}

} // namespace qbench
