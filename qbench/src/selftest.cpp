/*! \file selftest.cpp
 *  \brief Plants faults in real outputs; the checker must catch each one.
 */
#include "selftest.hpp"

#include "checker.hpp"

#include "core/bent.hpp"
#include "core/hidden_shift.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/coupling_map.hpp"
#include "mapping/router.hpp"
#include "phasepoly/phasepoly.hpp"
#include "pipeline/pass_manager.hpp"
#include "server/compile_server.hpp"
#include "simulator/statevector.hpp"

#include <cstdio>
#include <functional>

namespace qbench
{
namespace
{

using qda::gate_kind;

/*! Copy of `circuit` with the `index`-th gate of `kind` edited by `edit`
 *  (which may drop it by returning false). */
qda::qcircuit edit_nth( const qda::qcircuit& circuit, gate_kind kind, size_t index,
                        const std::function<bool( qda::qgate& )>& edit )
{
  qda::qcircuit out( circuit.num_qubits() );
  size_t seen = 0u;
  for ( const auto& view : circuit.gates() )
  {
    qda::qgate gate = view.materialize();
    if ( view.kind == kind && seen++ == index && !edit( gate ) )
    {
      continue;
    }
    out.add_gate( gate );
  }
  return out;
}

size_t count_kind( const qda::qcircuit& circuit, gate_kind kind )
{
  size_t count = 0u;
  for ( const auto& g : circuit.gates() )
  {
    count += g.kind == kind ? 1u : 0u;
  }
  return count;
}

struct tally
{
  int missed = 0;

  /*! `reason` is the checker's verdict on a planted fault: it must fail. */
  void fault( const char* name, const std::string& reason )
  {
    std::printf( "selftest: %-38s %s\n", name,
                 reason.empty() ? "MISSED" : ( "caught: " + reason ).c_str() );
    missed += reason.empty() ? 1 : 0;
  }

  /*! `reason` is the checker's verdict on an unmodified output: it must pass. */
  void clean( const char* name, const std::string& reason )
  {
    std::printf( "selftest: %-38s %s\n", name,
                 reason.empty() ? "passes" : ( "REJECTED: " + reason ).c_str() );
    missed += reason.empty() ? 0 : 1;
  }
};

std::vector<uint64_t> sample_shots( const qda::qcircuit& circuit )
{
  std::vector<uint64_t> shots;
  for ( const auto& [outcome, count] : qda::sample_counts( circuit, 64u, 7u ) )
  {
    shots.insert( shots.end(), count, outcome );
  }
  return shots;
}

uint64_t compiled_jobs( qda::server::key_mode keying, const std::vector<std::string>& specs )
{
  qda::server::server_options options;
  options.num_workers = 1u;
  options.keying = keying;
  qda::server::compile_server server( options );
  for ( const auto& spec : specs )
  {
    server.submit( spec ).get();
  }
  return server.statistics().compiled;
}

} // namespace

int run_selftest()
{
  tally t;

  /* Eq. (5) on hwb-4: the MCT and Clifford+T checks */
  const reference_function hwb4{ reference_function::kind::hwb, 4u, 0u, {} };
  qda::pass_manager manager( false );
  const auto result = manager.run( "revgen --hwb 4; tbs; revsimp; rptm; tpar" );
  const auto& circuit = result.ir.quantum->circuit;
  t.clean( "hwb-4 MCT circuit", check_mct( *result.ir.reversible, hwb4 ) );
  t.clean( "hwb-4 Clifford+T circuit", check_clifford_t( circuit, hwb4, 1u ) );
  t.fault( "dropped T",
           check_clifford_t( edit_nth( circuit, gate_kind::t, count_kind( circuit, gate_kind::t ) / 2u,
                                       []( qda::qgate& ) { return false; } ),
                             hwb4, 1u ) );
  t.fault( "flipped CNOT",
           check_clifford_t( edit_nth( circuit, gate_kind::cx, count_kind( circuit, gate_kind::cx ) / 2u,
                                       []( qda::qgate& g ) {
                                         std::swap( g.controls[0], g.target );
                                         return true;
                                       } ),
                             hwb4, 1u ) );
  auto with_z = circuit;
  with_z.z( 0u );
  t.fault( "extra Z on line 0", check_clifford_t( with_z, hwb4, 1u ) );

  /* hidden shift on QX5: legality and the planted shift */
  const uint64_t shift = 5u;
  const auto logical = qda::hidden_shift_circuit_mm( qda::mm_bent_function::paper_fig7(), shift );
  qda::clifford_t_options options;
  options.max_qubits = 16u;
  auto lowered = qda::lower_multi_controlled_gates( logical, options );
  qda::phasepoly::tpar_in_place( lowered.circuit );
  const auto routed = qda::route_circuit( lowered.circuit, qda::coupling_map::ibm_qx5() );
  t.clean( "hidden shift routed onto QX5", check_qx5_legal( routed.circuit ) );
  t.clean( "hidden shift Clifford+T state",
           check_prepares_basis_state( lowered.circuit, 6u, shift ) );
  auto off_edge = routed.circuit;
  off_edge.cx( 0u, 5u ); /* QX5 has no coupling between qubits 0 and 5 */
  t.fault( "CNOT off a device edge", check_qx5_legal( off_edge ) );
  const auto shots = sample_shots( routed.circuit );
  t.clean( "hidden shift shots", check_shots( shots, shift ) );
  t.fault( "wrong shift", check_shots( shots, shift ^ 1u ) );

  /* compile server: a respelling must not count as a new pipeline */
  const std::vector<std::string> specs = { "revgen --hwb 4; tbs; rptm",
                                           "  revgen --hwb 4 ;  ; tbs ;  ; rptm ;" };
  t.clean( "respelling shares one compile",
           check_compiled_count( compiled_jobs( qda::server::key_mode::structural, specs ), 1u ) );
  t.fault( "respelling counted as a new pipeline",
           check_compiled_count( compiled_jobs( qda::server::key_mode::exact_text, specs ), 1u ) );

  std::printf( "selftest: %s\n", t.missed == 0 ? "ok" : "FAILED" );
  return t.missed;
}

} // namespace qbench
