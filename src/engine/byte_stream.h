// std::streambuf adapters over caller-owned memory, so snapshot images
// move between the stream API and byte buffers without an intermediate
// std::string copy.
#pragma once

#include <cstddef>
#include <streambuf>
#include <vector>

namespace secmem {

/// ostream sink appending straight into a caller-owned byte vector
/// (char or std::byte). reserve() up front makes xsputn a
/// memcpy-and-bump in steady state.
template <class Byte>
class VectorSink final : public std::streambuf {
  static_assert(sizeof(Byte) == 1);

 public:
  explicit VectorSink(std::vector<Byte>& out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto* p = reinterpret_cast<const Byte*>(s);
    out_.insert(out_.end(), p, p + n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
      out_.push_back(static_cast<Byte>(traits_type::to_char_type(ch)));
    return ch;
  }

 private:
  std::vector<Byte>& out_;
};

/// istream source over a borrowed byte range, read without copying it.
/// The const_cast is the std::streambuf get-area API's; the get area is
/// never written through.
class SpanSource final : public std::streambuf {
 public:
  SpanSource(const void* data, std::size_t size) {
    char* p = const_cast<char*>(static_cast<const char*>(data));
    setg(p, p, p + size);
  }
};

}  // namespace secmem
