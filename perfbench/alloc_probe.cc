/**
 * @file
 * Counting replacement of the global allocation functions. The serve
 * workload arms it around the replayed Graph::run calls to report
 * dam.allocs_per_event; the DAM hot path is meant to allocate nothing
 * once its pools are warm.
 */
#include <cstdlib>
#include <new>

#include "bench.hh"

namespace {

thread_local bool t_armed = false;
thread_local uint64_t t_count = 0;

void*
countedAlloc(std::size_t n)
{
    if (t_armed)
        ++t_count;
    return std::malloc(n == 0 ? 1 : n);
}

void*
countedAlignedAlloc(std::size_t n, std::align_val_t align)
{
    if (t_armed)
        ++t_count;
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants the size to be a multiple of the alignment.
    const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
    return std::aligned_alloc(a, size);
}

} // namespace

namespace perfbench {

void
allocProbeArm(bool on)
{
    t_armed = on;
}

uint64_t
allocProbeCount()
{
    return t_count;
}

} // namespace perfbench

void*
operator new(std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    if (void* p = countedAlignedAlloc(n, align))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    if (void* p = countedAlignedAlloc(n, align))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new(std::size_t n, std::align_val_t align,
             const std::nothrow_t&) noexcept
{
    return countedAlignedAlloc(n, align);
}

void*
operator new[](std::size_t n, std::align_val_t align,
               const std::nothrow_t&) noexcept
{
    return countedAlignedAlloc(n, align);
}

// GCC follows the malloc attribute through the replaced operator new and
// flags the free() below as a mismatched pair; both sides are this
// file's malloc/free replacements, so they do match.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop
