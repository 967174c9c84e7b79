#include "checker.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <set>
#include <span>
#include <unordered_map>

namespace qbench
{

using qda::gate_kind;
using amplitude = std::complex<double>;

namespace
{

constexpr double drop_below = 1e-12;
constexpr double tolerance = 1e-6;

uint64_t mask_of( uint32_t bits )
{
  return bits >= 64u ? ~uint64_t{ 0 } : ( uint64_t{ 1 } << bits ) - 1u;
}

uint64_t rotate_left( uint64_t x, uint32_t by, uint32_t n )
{
  by %= n;
  return by == 0u ? x : ( ( x << by ) | ( x >> ( n - by ) ) ) & mask_of( n );
}

uint64_t splitmix( uint64_t& state )
{
  uint64_t z = ( state += 0x9e3779b97f4a7c15ull );
  z = ( z ^ ( z >> 30 ) ) * 0xbf58476d1ce4e5b9ull;
  z = ( z ^ ( z >> 27 ) ) * 0x94d049bb133111ebull;
  return z ^ ( z >> 31 );
}

/*! A superposition of basis states, kept as (index, amplitude) terms. */
using sparse_state = std::vector<std::pair<uint64_t, amplitude>>;

bool controls_set( uint64_t index, std::span<const uint32_t> controls )
{
  for ( const auto c : controls )
  {
    if ( ( ( index >> c ) & 1u ) == 0u )
    {
      return false;
    }
  }
  return true;
}

void apply_phase_if_set( sparse_state& state, uint64_t mask, amplitude phase )
{
  for ( auto& [index, amp] : state )
  {
    if ( ( index & mask ) == mask )
    {
      amp *= phase;
    }
  }
}

/*! Dense 2x2 on one qubit: m = {m00, m01, m10, m11} (row, column). */
void apply_dense( sparse_state& state, uint32_t qubit, const std::array<amplitude, 4>& m )
{
  const uint64_t bit = uint64_t{ 1 } << qubit;
  std::unordered_map<uint64_t, std::pair<amplitude, amplitude>> pairs;
  pairs.reserve( state.size() * 2u );
  for ( const auto& [index, amp] : state )
  {
    auto& out = pairs[index & ~bit];
    const bool one = ( index & bit ) != 0u;
    out.first += ( one ? m[1] : m[0] ) * amp;
    out.second += ( one ? m[3] : m[2] ) * amp;
  }
  state.clear();
  for ( const auto& [base, amps] : pairs )
  {
    if ( std::abs( amps.first ) > drop_below )
    {
      state.emplace_back( base, amps.first );
    }
    if ( std::abs( amps.second ) > drop_below )
    {
      state.emplace_back( base | bit, amps.second );
    }
  }
}

/*! Applies one unitary gate; returns a reason for gates it cannot run. */
std::string apply_gate( sparse_state& state, const qda::qgate_view& g )
{
  const double r = 1.0 / std::sqrt( 2.0 );
  const amplitude i1( 0.0, 1.0 );
  const uint64_t target = uint64_t{ 1 } << g.target;
  switch ( g.kind )
  {
  case gate_kind::barrier:
    return {};
  case gate_kind::global_phase:
    for ( auto& term : state )
    {
      term.second *= std::polar( 1.0, g.angle );
    }
    return {};
  case gate_kind::h:
    apply_dense( state, g.target, { r, r, r, -r } );
    return {};
  case gate_kind::rx:
    apply_dense( state, g.target,
                 { std::cos( g.angle / 2 ), -i1 * std::sin( g.angle / 2 ),
                   -i1 * std::sin( g.angle / 2 ), std::cos( g.angle / 2 ) } );
    return {};
  case gate_kind::ry:
    apply_dense( state, g.target,
                 { std::cos( g.angle / 2 ), -std::sin( g.angle / 2 ), std::sin( g.angle / 2 ),
                   std::cos( g.angle / 2 ) } );
    return {};
  case gate_kind::x:
    for ( auto& term : state )
    {
      term.first ^= target;
    }
    return {};
  case gate_kind::y:
    for ( auto& [index, amp] : state )
    {
      amp *= ( index & target ) ? -i1 : i1;
      index ^= target;
    }
    return {};
  case gate_kind::z:
    apply_phase_if_set( state, target, -1.0 );
    return {};
  case gate_kind::s:
    apply_phase_if_set( state, target, i1 );
    return {};
  case gate_kind::sdg:
    apply_phase_if_set( state, target, -i1 );
    return {};
  case gate_kind::t:
    apply_phase_if_set( state, target, std::polar( 1.0, std::numbers::pi / 4 ) );
    return {};
  case gate_kind::tdg:
    apply_phase_if_set( state, target, std::polar( 1.0, -std::numbers::pi / 4 ) );
    return {};
  case gate_kind::rz:
    for ( auto& [index, amp] : state )
    {
      amp *= std::polar( 1.0, ( index & target ) ? g.angle / 2 : -g.angle / 2 );
    }
    return {};
  case gate_kind::cx:
  case gate_kind::mcx:
    for ( auto& term : state )
    {
      if ( controls_set( term.first, g.controls ) )
      {
        term.first ^= target;
      }
    }
    return {};
  case gate_kind::cz:
  case gate_kind::mcz:
    for ( auto& [index, amp] : state )
    {
      if ( ( index & target ) && controls_set( index, g.controls ) )
      {
        amp = -amp;
      }
    }
    return {};
  case gate_kind::swap:
  {
    const uint64_t other = uint64_t{ 1 } << g.target2;
    for ( auto& term : state )
    {
      const bool a = ( term.first & target ) != 0u;
      const bool b = ( term.first & other ) != 0u;
      if ( a != b )
      {
        term.first ^= target | other;
      }
    }
    return {};
  }
  case gate_kind::measure:
    return "unexpected measurement";
  }
  return "unknown gate kind";
}

} // namespace

uint64_t reference_function::image( uint64_t x ) const
{
  switch ( type )
  {
  case kind::hwb:
    return rotate_left( x, static_cast<uint32_t>( __builtin_popcountll( x ) ), num_vars );
  case kind::adder:
    return ( x + param ) & mask_of( num_vars );
  case kind::multiplier:
    return ( x * param ) & mask_of( num_vars );
  case kind::table:
    return images.at( x );
  }
  return 0u;
}

std::string check_mct( const qda::rev_circuit& circuit, const reference_function& f )
{
  if ( circuit.num_lines() != f.num_vars )
  {
    return "MCT circuit has " + std::to_string( circuit.num_lines() ) + " lines, expected " +
           std::to_string( f.num_vars );
  }
  std::vector<qda::rev_gate> gates;
  for ( const auto& g : circuit.gates() )
  {
    gates.push_back( g );
  }
  for ( uint64_t x = 0u; x <= mask_of( f.num_vars ); ++x )
  {
    uint64_t value = x;
    for ( const auto& g : gates )
    {
      if ( ( ( value ^ g.polarity ) & g.controls ) == 0u )
      {
        value ^= uint64_t{ 1 } << g.target;
      }
    }
    if ( value != f.image( x ) )
    {
      return "MCT circuit maps " + std::to_string( x ) + " to " + std::to_string( value ) +
             ", expected " + std::to_string( f.image( x ) );
    }
  }
  return {};
}

std::string check_clifford_t( const qda::qcircuit& circuit, const reference_function& f,
                              uint64_t sample_seed, uint32_t max_samples )
{
  if ( circuit.num_qubits() < f.num_vars || circuit.num_qubits() > 64u )
  {
    return "Clifford+T circuit has " + std::to_string( circuit.num_qubits() ) + " qubits";
  }
  const uint64_t last = mask_of( f.num_vars );
  std::set<uint64_t> inputs;
  if ( last < max_samples )
  {
    for ( uint64_t x = 0u; x <= last; ++x )
    {
      inputs.insert( x );
    }
  }
  else
  {
    inputs = { 0u, last };
    uint64_t rng = sample_seed;
    while ( inputs.size() < max_samples )
    {
      inputs.insert( splitmix( rng ) & last );
    }
  }

  bool have_phase = false;
  amplitude phase;
  for ( const auto x : inputs )
  {
    sparse_state state{ { x, 1.0 } };
    for ( const auto& g : circuit.gates() )
    {
      if ( auto reason = apply_gate( state, g ); !reason.empty() )
      {
        return reason;
      }
    }
    const uint64_t expected = f.image( x );
    amplitude at_image = 0.0;
    for ( const auto& [index, amp] : state )
    {
      if ( index == expected )
      {
        at_image += amp;
      }
      else if ( std::abs( amp ) > tolerance )
      {
        return "input " + std::to_string( x ) + " leaves amplitude on basis state " +
               std::to_string( index ) + "; only its image " + std::to_string( expected ) +
               " with the helpers in 0 may carry any";
      }
    }
    if ( std::abs( std::abs( at_image ) - 1.0 ) > tolerance )
    {
      return "input " + std::to_string( x ) + " reaches its image with probability " +
             std::to_string( std::norm( at_image ) );
    }
    if ( !have_phase )
    {
      phase = at_image;
      have_phase = true;
    }
    else if ( std::abs( at_image - phase ) > tolerance )
    {
      return "input " + std::to_string( x ) + " carries phase " +
             std::to_string( std::arg( at_image ) ) + ", other columns " +
             std::to_string( std::arg( phase ) );
    }
  }
  return {};
}

std::string check_prepares_basis_state( const qda::qcircuit& circuit, uint32_t data_qubits,
                                        uint64_t expected )
{
  if ( circuit.num_qubits() > 64u || data_qubits > circuit.num_qubits() )
  {
    return "circuit has " + std::to_string( circuit.num_qubits() ) + " qubits";
  }
  uint64_t measured = 0u;
  sparse_state state{ { 0u, 1.0 } };
  for ( const auto& g : circuit.gates() )
  {
    if ( g.kind == gate_kind::measure )
    {
      measured |= uint64_t{ 1 } << g.target;
      continue;
    }
    for ( const auto q : g.qubits() )
    {
      if ( ( measured >> q ) & 1u )
      {
        return "gate after the measurement of qubit " + std::to_string( q );
      }
    }
    if ( auto reason = apply_gate( state, g ); !reason.empty() )
    {
      return reason;
    }
  }
  for ( const auto& [index, amp] : state )
  {
    if ( std::abs( amp ) > tolerance && index != expected )
    {
      return "final state has amplitude " + std::to_string( std::abs( amp ) ) +
             " on basis state " + std::to_string( index ) + ", expected only " +
             std::to_string( expected );
    }
  }
  return {};
}

const std::vector<std::pair<uint32_t, uint32_t>>& qx5_edges()
{
  /* IBM QX5 "Albatross", 16 qubits, directed control -> target pairs as
   * published with the device */
  static const std::vector<std::pair<uint32_t, uint32_t>> edges = {
      { 1, 0 },   { 1, 2 },   { 2, 3 },   { 3, 4 },   { 3, 14 }, { 5, 4 },   { 6, 5 },
      { 6, 7 },   { 6, 11 },  { 7, 10 },  { 8, 7 },   { 9, 8 },  { 9, 10 },  { 11, 10 },
      { 12, 5 },  { 12, 11 }, { 12, 13 }, { 13, 4 },  { 13, 14 }, { 15, 0 }, { 15, 2 },
      { 15, 14 } };
  return edges;
}

std::string check_qx5_legal( const qda::qcircuit& circuit )
{
  if ( circuit.num_qubits() > 16u )
  {
    return "routed circuit uses " + std::to_string( circuit.num_qubits() ) +
           " qubits, QX5 has 16";
  }
  const auto& edges = qx5_edges();
  for ( const auto& g : circuit.gates() )
  {
    const auto qubits = g.qubits();
    if ( qubits.size() <= 1u )
    {
      continue;
    }
    if ( g.kind != gate_kind::cx ||
         std::find( edges.begin(), edges.end(),
                    std::make_pair( g.controls[0], g.target ) ) == edges.end() )
    {
      return "gate '" + g.to_string() + "' is not a CNOT on a QX5 edge";
    }
  }
  return {};
}

std::string check_shots( const std::vector<uint64_t>& shots, uint64_t shift )
{
  if ( shots.empty() )
  {
    return "no shots";
  }
  for ( const auto shot : shots )
  {
    if ( shot != shift )
    {
      return "shot " + std::to_string( shot ) + " differs from the planted shift " +
             std::to_string( shift );
    }
  }
  return {};
}

std::string check_compiled_count( uint64_t compiled, uint64_t distinct_pipelines )
{
  if ( compiled != distinct_pipelines )
  {
    return "server compiled " + std::to_string( compiled ) + " jobs for " +
           std::to_string( distinct_pipelines ) + " distinct pipelines";
  }
  return {};
}

quality& quality::operator+=( const quality& other )
{
  t_count += other.t_count;
  cnot_count += other.cnot_count;
  depth += other.depth;
  qubits += other.qubits;
  return *this;
}

quality measure_quality( const qda::qcircuit& circuit )
{
  quality q;
  std::vector<uint64_t> level( circuit.num_qubits(), 0u );
  std::vector<bool> touched( circuit.num_qubits(), false );
  for ( const auto& g : circuit.gates() )
  {
    if ( g.kind == gate_kind::global_phase || g.kind == gate_kind::barrier ||
         g.kind == gate_kind::measure )
    {
      continue;
    }
    q.t_count += ( g.kind == gate_kind::t || g.kind == gate_kind::tdg ) ? 1u : 0u;
    q.cnot_count += g.kind == gate_kind::cx ? 1u : 0u;
    const auto qubits = g.qubits();
    uint64_t next = 0u;
    for ( const auto w : qubits )
    {
      next = std::max( next, level[w] + 1u );
    }
    for ( const auto w : qubits )
    {
      level[w] = next;
      touched[w] = true;
    }
    q.depth = std::max( q.depth, next );
  }
  q.qubits = static_cast<uint64_t>( std::count( touched.begin(), touched.end(), true ) );
  return q;
}

uint64_t circuit_fingerprint( const qda::qcircuit& circuit )
{
  uint64_t h = 0xcbf29ce484222325ull ^ circuit.num_qubits();
  const auto mix = [&]( uint64_t v ) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for ( const auto& g : circuit.gates() )
  {
    mix( static_cast<uint64_t>( g.kind ) );
    for ( const auto c : g.controls )
    {
      mix( c );
    }
    mix( g.target );
    mix( g.target2 );
    uint64_t angle_bits = 0u;
    std::memcpy( &angle_bits, &g.angle, sizeof( angle_bits ) );
    mix( angle_bits );
  }
  return h;
}

} // namespace qbench
