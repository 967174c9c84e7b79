/*! \file trace.hpp
 *  \brief The benchmark's own spans, recorded around calls into the
 *         library's layers from the outside.
 *
 *  A span has a name, a start, an end and the span that caused it.
 *  Self times (duration minus the time covered by child spans) are
 *  summed per round and span name as spans close.  The first
 *  `max_stored_spans` spans are also kept in memory and written out when
 *  the run ends (a `serve` round alone opens ~5000).  With tracing off,
 *  `tracer::scope` costs one branch and records nothing.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench
{

using clock_type = std::chrono::steady_clock;

inline double ms_between( clock_type::time_point a, clock_type::time_point b )
{
  return std::chrono::duration<double, std::milli>( b - a ).count();
}

struct span_record
{
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1; /*!< index of the enclosing span, -1 for roots */
  uint32_t round = 0u; /*!< round the span belongs to (0 = warm-up) */
};

class tracer
{
public:
  static constexpr size_t max_stored_spans = 100000u;

  explicit tracer( bool enabled );

  bool enabled() const noexcept { return enabled_; }

  /*! RAII span; spans opened while it is alive become its children. */
  class scope
  {
  public:
    scope( tracer& owner, const char* name );
    ~scope();
    scope( const scope& ) = delete;
    scope& operator=( const scope& ) = delete;

  private:
    tracer* owner_ = nullptr;
  };

  /*! Records a span whose ends were timed by the caller (used where a
   *  callback marks the boundary between two consecutive calls). */
  void record( const std::string& name, clock_type::time_point start,
               clock_type::time_point end );

  void set_round( uint32_t round ) noexcept { round_ = round; }

  /*! Self time of every span name in one round. */
  std::map<std::string, double> self_ms_in_round( uint32_t round ) const;

  /*! Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
  bool write_json( const std::string& path ) const;

private:
  struct open_span
  {
    std::string name;
    int64_t start_ns = 0;
    int32_t stored = -1;  /*!< index into spans_, -1 when not stored */
    int64_t child_ns = 0; /*!< time covered by closed children */
  };

  int64_t ns_since_origin( clock_type::time_point t ) const;
  void open( std::string name, int64_t start_ns );
  void close( int64_t end_ns );

  bool enabled_;
  clock_type::time_point origin_;
  std::vector<span_record> spans_;
  std::vector<open_span> stack_;
  std::map<uint32_t, std::map<std::string, double>> self_ms_;
  uint32_t round_ = 0u;
};

} // namespace qbench
