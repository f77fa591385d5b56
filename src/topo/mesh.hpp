/**
 * @file
 * Geometry of the on-chip 2-D mesh (Section 2.2, Figure 1).
 *
 * The Anton 2 ASIC contains a 4x4 mesh of routers; to avoid confusion with
 * the inter-node torus dimensions X/Y/Z, the mesh dimensions are called
 * U (horizontal) and V (vertical).
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace anton2 {

/** Identifies a router within one chip's mesh. */
using RouterId = std::uint16_t;

/** The four mesh travel directions. */
enum class MeshDir : std::uint8_t { UPos = 0, UNeg = 1, VPos = 2, VNeg = 3 };

inline constexpr MeshDir kMeshDirs[] = { MeshDir::UPos, MeshDir::UNeg,
                                         MeshDir::VPos, MeshDir::VNeg };
inline constexpr int kNumMeshDirs = 4;

constexpr int
meshDirIdx(MeshDir d)
{
    return static_cast<int>(d);
}

constexpr const char *
meshDirName(MeshDir d)
{
    switch (d) {
      case MeshDir::UPos: return "U+";
      case MeshDir::UNeg: return "U-";
      case MeshDir::VPos: return "V+";
      case MeshDir::VNeg: return "V-";
    }
    return "?";
}

constexpr int
meshDirDu(MeshDir d)
{
    return d == MeshDir::UPos ? 1 : d == MeshDir::UNeg ? -1 : 0;
}

constexpr int
meshDirDv(MeshDir d)
{
    return d == MeshDir::VPos ? 1 : d == MeshDir::VNeg ? -1 : 0;
}

constexpr MeshDir
meshOpposite(MeshDir d)
{
    switch (d) {
      case MeshDir::UPos: return MeshDir::UNeg;
      case MeshDir::UNeg: return MeshDir::UPos;
      case MeshDir::VPos: return MeshDir::VNeg;
      case MeshDir::VNeg: return MeshDir::VPos;
    }
    return MeshDir::UPos;
}

/**
 * An ordering of the four mesh directions, used by direction-order routing
 * (Section 2.4). Anton 2 uses V-, U+, U-, V+, which the optimization search
 * in analysis/worst_case shows to be optimal.
 */
using MeshDirOrder = std::vector<MeshDir>;

/** The Anton 2 production direction order: V-, U+, U-, V+. */
inline MeshDirOrder
anton2DirOrder()
{
    return { MeshDir::VNeg, MeshDir::UPos, MeshDir::UNeg, MeshDir::VPos };
}

/** Width x height mesh coordinate arithmetic. */
class MeshGeom
{
  public:
    MeshGeom(int width, int height) : width_(width), height_(height)
    {
        assert(width >= 1 && height >= 1);
    }

    int width() const { return width_; }
    int height() const { return height_; }
    int numRouters() const { return width_ * height_; }

    RouterId
    id(int u, int v) const
    {
        assert(contains(u, v));
        return static_cast<RouterId>(v * width_ + u);
    }

    int u(RouterId r) const { return r % width_; }
    int v(RouterId r) const { return r / width_; }

    bool
    contains(int u, int v) const
    {
        return u >= 0 && u < width_ && v >= 0 && v < height_;
    }

    /** True if moving from router @p r along @p d stays on the mesh. */
    bool
    canMove(RouterId r, MeshDir d) const
    {
        return contains(u(r) + meshDirDu(d), v(r) + meshDirDv(d));
    }

    /** Router one hop along @p d from @p r (must be on-mesh). */
    RouterId
    move(RouterId r, MeshDir d) const
    {
        return id(u(r) + meshDirDu(d), v(r) + meshDirDv(d));
    }

  private:
    int width_;
    int height_;
};

/** Enumerate all 4! = 24 mesh direction orders. */
std::vector<MeshDirOrder> allMeshDirOrders();

} // namespace anton2
