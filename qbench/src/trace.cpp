#include "trace.hpp"

#include <cstdio>

namespace qbench
{

tracer::tracer( bool enabled ) : enabled_( enabled ), origin_( clock_type::now() ) {}

int64_t tracer::ns_since_origin( clock_type::time_point t ) const
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>( t - origin_ ).count();
}

void tracer::open( std::string name, int64_t start_ns )
{
  int32_t stored = -1;
  if ( spans_.size() < max_stored_spans )
  {
    stored = static_cast<int32_t>( spans_.size() );
    spans_.push_back( { name, start_ns, start_ns, stack_.empty() ? -1 : stack_.back().stored,
                        round_ } );
  }
  stack_.push_back( { std::move( name ), start_ns, stored, 0 } );
}

void tracer::close( int64_t end_ns )
{
  const auto span = std::move( stack_.back() );
  stack_.pop_back();
  const int64_t duration = end_ns - span.start_ns;
  self_ms_[round_][span.name] += static_cast<double>( duration - span.child_ns ) / 1e6;
  if ( !stack_.empty() )
  {
    stack_.back().child_ns += duration;
  }
  if ( span.stored >= 0 )
  {
    spans_[static_cast<size_t>( span.stored )].end_ns = end_ns;
  }
}

tracer::scope::scope( tracer& owner, const char* name )
{
  if ( owner.enabled_ )
  {
    owner_ = &owner;
    owner.open( name, owner.ns_since_origin( clock_type::now() ) );
  }
}

tracer::scope::~scope()
{
  if ( owner_ )
  {
    owner_->close( owner_->ns_since_origin( clock_type::now() ) );
  }
}

void tracer::record( const std::string& name, clock_type::time_point start,
                     clock_type::time_point end )
{
  if ( enabled_ )
  {
    open( name, ns_since_origin( start ) );
    close( ns_since_origin( end ) );
  }
}

std::map<std::string, double> tracer::self_ms_in_round( uint32_t round ) const
{
  const auto it = self_ms_.find( round );
  return it == self_ms_.end() ? std::map<std::string, double>{} : it->second;
}

bool tracer::write_json( const std::string& path ) const
{
  FILE* out = std::fopen( path.c_str(), "w" );
  if ( !out )
  {
    return false;
  }
  std::fprintf( out, "{\"traceEvents\":[" );
  for ( size_t i = 0u; i < spans_.size(); ++i )
  {
    const auto& span = spans_[i];
    std::fprintf( out,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"round\":%u}}",
                  i == 0u ? "" : ",", span.name.c_str(),
                  static_cast<double>( span.start_ns ) / 1e3,
                  static_cast<double>( span.end_ns - span.start_ns ) / 1e3, i, span.parent,
                  span.round );
  }
  std::fprintf( out, "\n]}\n" );
  return std::fclose( out ) == 0;
}

} // namespace qbench
