/*! \file checker.hpp
 *  \brief Output checks that share no code with the library's simulators.
 *
 *  The checker reads compiled circuits only through their public gate
 *  views and compares them with references the benchmark computes
 *  itself:
 *
 *   - `check_mct`: a classical evaluator of MCT circuits, run on every
 *     input, against the benchmark's own permutation;
 *   - `check_clifford_t`: a sparse basis-state simulator, run on a seeded
 *     sample of inputs: each input must reach its image with the helpers
 *     back in |0>, and every sampled column must carry the same phase;
 *   - `check_prepares_basis_state`: the same simulator from |0...0>, for
 *     circuits that must end in one basis state (hidden shift);
 *   - `check_qx5_legal`: every two-qubit gate of a routed circuit sits on
 *     a directed edge of the benchmark's own IBM QX5 edge list;
 *   - `check_shots`: every shot equals the planted hidden shift.
 *
 *  Each check returns an empty string when it passes and a reason when
 *  it fails.
 */
#pragma once

#include "quantum/qcircuit.hpp"
#include "reversible/rev_circuit.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace qbench
{

/*! A reversible function the benchmark computes itself. */
struct reference_function
{
  enum class kind
  {
    hwb,        /*!< rotate left by popcount */
    adder,      /*!< x + param mod 2^n */
    multiplier, /*!< x * param mod 2^n, param odd */
    table       /*!< explicit image table */
  };

  kind type = kind::table;
  uint32_t num_vars = 0u;
  uint64_t param = 0u;
  std::vector<uint64_t> images; /*!< used by kind::table */

  uint64_t image( uint64_t x ) const;
};

std::string check_mct( const qda::rev_circuit& circuit, const reference_function& f );

std::string check_clifford_t( const qda::qcircuit& circuit, const reference_function& f,
                              uint64_t sample_seed, uint32_t max_samples = 48u );

/*! From |0...0>, the circuit (terminal measurements skipped) must end in
 *  |expected> on its first `data_qubits` qubits with every other qubit
 *  in |0>. */
std::string check_prepares_basis_state( const qda::qcircuit& circuit, uint32_t data_qubits,
                                        uint64_t expected );

/*! The benchmark's own copy of IBM QX5's directed coupling edges. */
const std::vector<std::pair<uint32_t, uint32_t>>& qx5_edges();

std::string check_qx5_legal( const qda::qcircuit& circuit );

std::string check_shots( const std::vector<uint64_t>& shots, uint64_t shift );

/*! A server must compile each distinct pipeline once: respellings of a
 *  pipeline share its result. */
std::string check_compiled_count( uint64_t compiled, uint64_t distinct_pipelines );

/*! Gate counts the benchmark reports, counted here, not by the library. */
struct quality
{
  uint64_t t_count = 0u;
  uint64_t cnot_count = 0u;
  uint64_t depth = 0u;
  uint64_t qubits = 0u; /*!< qubits some gate acts on */

  quality& operator+=( const quality& other );
};

quality measure_quality( const qda::qcircuit& circuit );

/*! Order-sensitive fingerprint of a circuit's gates, to confirm that a
 *  later round produced exactly the circuit a checked round produced. */
uint64_t circuit_fingerprint( const qda::qcircuit& circuit );

} // namespace qbench
