/**
 * @file
 * Zero-filled byte buffer mapped straight from the operating system.
 *
 * A chip's functional memory image is megabytes, and most runs touch a
 * small part of it. Taking it from an anonymous mapping instead of the
 * malloc heap means a page costs resident memory only once it is
 * written, and the block never sits in the heap, where small
 * allocations made while it is free could split it and push the next
 * chip's image onto fresh pages. Peak host memory is then a function of
 * what the simulated programs touch, not of the heap's history.
 */

#ifndef CYCLOPS_COMMON_PAGE_BUFFER_H
#define CYCLOPS_COMMON_PAGE_BUFFER_H

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <utility>

#include "common/types.h"

namespace cyclops
{

class PageBuffer
{
  public:
    PageBuffer() = default;

    explicit PageBuffer(size_t bytes) : size_(bytes)
    {
        if (bytes == 0)
            return;
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<u8 *>(p);
    }

    PageBuffer(const PageBuffer &) = delete;
    PageBuffer &operator=(const PageBuffer &) = delete;

    PageBuffer(PageBuffer &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {}

    PageBuffer &
    operator=(PageBuffer &&o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        return *this;
    }

    ~PageBuffer()
    {
        if (data_)
            munmap(data_, size_);
    }

    size_t size() const { return size_; }
    u8 &operator[](size_t i) { return data_[i]; }
    const u8 &operator[](size_t i) const { return data_[i]; }

  private:
    u8 *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace cyclops

#endif // CYCLOPS_COMMON_PAGE_BUFFER_H
