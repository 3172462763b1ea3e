#include "tgen/benchmarks.hh"

#include "common/logging.hh"
#include "isa/registers.hh"

namespace oova
{

namespace
{

constexpr uint64_t kKiB = 1024;

/**
 * swm256: shallow-water model. The paper reports 99.9% vectorization
 * and average vector length 127 — long unit-stride stencil loops
 * with almost no scalar code. Three update loops (CALC1/2/3 style),
 * low register pressure, few spills.
 */
std::unique_ptr<Program>
makeSwm256()
{
    auto p = std::make_unique<Program>("swm256");
    int u = p->array(512 * kKiB), v = p->array(512 * kKiB);
    int pres = p->array(512 * kKiB), z = p->array(512 * kKiB);
    int cu = p->array(512 * kKiB), cv = p->array(512 * kKiB);
    // Coefficient vector: reloaded every iteration because only 8
    // architected registers exist ("repeated loads from the same
    // memory location", section 6) — prime VLE food.
    int coef = p->array(kKiB);

    // CALC1: cu, cv, z from u, v, p.
    Kernel *k1 = p->newKernel("calc1");
    {
        VVid a = k1->vload(u), b = k1->vload(v), c = k1->vload(pres);
        VVid w0 = k1->vloadFixed(coef, 0, 127);
        VVid t1 = k1->vmul(a, c);
        VVid t2 = k1->vmul(b, c);
        VVid t3 = k1->vadd(t1, t2);
        VVid t4 = k1->vadd(a, b);
        VVid t5 = k1->vmul(t3, t4);
        VVid t6 = k1->vadd(t5, t1);
        VVid t7 = k1->vmul(t6, w0);
        k1->vstore(cu, t2);
        k1->vstore(cv, t7);
    }
    // CALC2: sweep combining computed capacities.
    Kernel *k2 = p->newKernel("calc2");
    {
        VVid a = k2->vload(cu), b = k2->vload(cv), c = k2->vload(z);
        VVid w0 = k2->vloadFixed(coef, 0, 127);
        VVid t1 = k2->vadd(a, b);
        VVid t2 = k2->vmul(t1, c);
        VVid t3 = k2->vadd(t2, a);
        VVid t4 = k2->vmul(t3, b);
        VVid t5 = k2->vadd(t4, t2);
        VVid t6 = k2->vmul(t5, w0);
        k2->vstore(u, t3);
        k2->vstore(v, t6);
    }
    // CALC3: time smoothing.
    Kernel *k3 = p->newKernel("calc3");
    {
        VVid a = k3->vload(u), b = k3->vload(v), c = k3->vload(pres);
        VVid w0 = k3->vloadFixed(coef, 0, 127);
        VVid t1 = k3->vadd(a, b);
        VVid t2 = k3->vadd(t1, c);
        VVid t3 = k3->vmul(t2, a);
        VVid t4 = k3->vadd(t3, b);
        VVid t5 = k3->vmul(t4, c);
        VVid t6 = k3->vadd(t5, t3);
        VVid t7 = k3->vadd(t6, w0);
        k3->vstore(pres, t7);
        k3->vstore(z, t4);
    }
    p->addLoop(k1, 40, vlConstant(127));
    p->addLoop(k2, 40, vlConstant(127));
    p->addLoop(k3, 40, vlConstant(127));
    p->setOuterReps(3);
    return p;
}

/**
 * hydro2d: astrophysical hydrodynamics. Long vectors, a balanced
 * add/mul mix with an occasional divide, high vectorization.
 */
std::unique_ptr<Program>
makeHydro2d()
{
    auto p = std::make_unique<Program>("hydro2d");
    int ro = p->array(400 * kKiB), en = p->array(400 * kKiB);
    int vx = p->array(400 * kKiB), vy = p->array(400 * kKiB);
    int fl = p->array(400 * kKiB);
    int gam = p->array(kKiB); // invariant equation-of-state vector

    Kernel *k1 = p->newKernel("advect");
    {
        // Six streams: exactly fills the six allocatable address
        // registers, as the Convex compiler would arrange.
        VVid a = k1->vload(ro), b = k1->vload(vx), c = k1->vload(vy);
        VVid d = k1->vload(en);
        VVid w0 = k1->vloadFixed(gam, 0, 100);
        VVid t1 = k1->vmul(a, b);
        VVid t2 = k1->vmul(a, c);
        VVid t3 = k1->vadd(t1, t2);
        VVid t4 = k1->vdiv(d, a);
        VVid t5 = k1->vadd(t3, t4);
        VVid t6 = k1->vmul(t5, t3);
        VVid t7 = k1->vadd(t6, t1);
        VVid t8 = k1->vadd(t7, t2);
        VVid t9 = k1->vadd(t5, t8);
        VVid t10 = k1->vmul(t9, w0);
        k1->vstore(ro, t10);
    }
    Kernel *k2 = p->newKernel("flux");
    {
        VVid a = k2->vload(vx), b = k2->vload(vy), c = k2->vload(fl);
        VVid d = k2->vload(ro);
        VVid w0 = k2->vloadFixed(gam, 0, 100);
        VVid t1 = k2->vadd(a, b);
        VVid t2 = k2->vmul(t1, c);
        VVid t3 = k2->vadd(t2, d);
        VVid t4 = k2->vmul(t3, t1);
        VVid t5 = k2->vadd(t4, c);
        VVid t6 = k2->vmul(t5, d);
        VVid t7 = k2->vadd(t6, w0);
        VVid t8 = k2->vadd(t7, t4);
        k2->vstore(fl, t8);
    }
    p->addLoop(k1, 55, vlConstant(100));
    p->addLoop(k2, 55, vlConstant(100));
    p->setOuterReps(3);
    return p;
}

/**
 * arc2d: implicit finite-difference fluid code. One wide loop with
 * many simultaneously live values (pressure > 8 V registers), so the
 * allocator produces a moderate amount of vector spill code, plus a
 * conditional merge.
 */
std::unique_ptr<Program>
makeArc2d()
{
    auto p = std::make_unique<Program>("arc2d");
    int q1 = p->array(600 * kKiB), q2 = p->array(600 * kKiB);
    int q3 = p->array(600 * kKiB), rhs = p->array(600 * kKiB);
    int wk = p->array(600 * kKiB), out = p->array(600 * kKiB);

    Kernel *k = p->newKernel("stencil");
    {
        // Load a wide working set first; everything stays live
        // across the computation below, exceeding 8 registers.
        VVid a = k->vload(q1), b = k->vload(q2), c = k->vload(q3);
        VVid d = k->vload(rhs), e = k->vload(wk), f = k->vload(q1, 2);
        VVid g = k->vload(q2, 2), h = k->vload(q3, 2);

        VVid t1 = k->vmul(a, b);
        VVid t2 = k->vmul(c, d);
        VVid t3 = k->vadd(t1, t2);
        VVid t4 = k->vmul(e, f);
        VVid t5 = k->vadd(t3, t4);
        VVid t6 = k->vmul(g, h);
        VVid t7 = k->vadd(t5, t6);
        VVid t8 = k->vadd(a, h);   // early values used late
        VVid t9 = k->vadd(b, g);
        VVid t10 = k->vmul(t8, t9);
        VVid t11 = k->vadd(t7, t10);
        VVid t12 = k->vcmpMerge(t11, c);
        VVid t13 = k->vadd(t12, d);
        VVid t14 = k->vmul(t13, e);
        VVid t15 = k->vadd(t14, f);
        k->vstore(out, t11);
        k->vstore(rhs, t13);
        k->vstore(wk, t15);
        k->scalarChain(17); // implicit-solver index bookkeeping
    }
    p->addLoop(k, 65, vlConstant(115));
    p->setOuterReps(3);
    return p;
}

/**
 * flo52: transonic flow, multigrid structure. Vector length halves
 * from level to level (96 -> 48 -> 24 -> 12), which makes the
 * program latency sensitive — the paper singles it out (with trfd
 * and dyfesm) as highly affected by memory latency.
 */
std::unique_ptr<Program>
makeFlo52()
{
    auto p = std::make_unique<Program>("flo52");
    int w = p->array(256 * kKiB), fs = p->array(256 * kKiB);
    int dw = p->array(256 * kKiB), rad = p->array(256 * kKiB);
    int wt = p->array(kKiB); // invariant restriction weights

    const uint16_t levels[4] = {96, 48, 24, 12};
    for (uint16_t vl : levels) {
        Kernel *k = p->newKernel("level" + std::to_string(vl));
        VVid a = k->vload(w), b = k->vload(fs), c = k->vload(rad);
        VVid w0 = k->vloadFixed(wt, 0, vl);
        VVid t1 = k->vmul(a, b);
        VVid t2 = k->vadd(t1, c);
        VVid t3 = k->vmul(t2, a);
        VVid t4 = k->vadd(t3, b);
        VVid t5 = k->vadd(t4, t1);
        VVid t6 = k->vmul(t5, w0);
        k->vstore(dw, t3);
        k->vstore(w, t6);
        k->scalarChain(9); // grid-transfer address arithmetic
        p->addLoop(k, 40, vlConstant(vl));
    }
    p->setOuterReps(5);
    return p;
}

/**
 * nasa7: seven NASA kernels. Modeled as four representative loops:
 * a matrix-multiply inner loop with a loop-invariant operand (a
 * repeated load from the same address, food for vector load
 * elimination), a strided FFT-like pass, a gather/scatter kernel
 * and a reduction kernel.
 */
std::unique_ptr<Program>
makeNasa7()
{
    auto p = std::make_unique<Program>("nasa7");
    int ma = p->array(512 * kKiB), mb = p->array(512 * kKiB);
    int mc = p->array(512 * kKiB), fft = p->array(512 * kKiB);
    int tbl = p->array(64 * kKiB), idx = p->array(64 * kKiB);
    int red = p->array(512 * kKiB);
    int acc_slot = p->scalarSlot();

    Kernel *km = p->newKernel("mxm");
    {
        VVid col = km->vloadFixed(mb);   // invariant across the strip
        VVid a = km->vload(ma);
        VVid c = km->vload(mc);
        VVid t1 = km->vmul(a, col);
        VVid t2 = km->vadd(c, t1);
        VVid a2 = km->vload(ma, 2);
        VVid t3 = km->vmul(a2, col);
        VVid t4 = km->vadd(t2, t3);
        km->vstore(mc, t4);
        km->scalarChain(11);
    }
    Kernel *kf = p->newKernel("cfft2d");
    {
        VVid re = kf->vload(fft, 2), im = kf->vload(fft, 2);
        VVid wr = kf->vload(tbl), wi = kf->vload(tbl);
        VVid t1 = kf->vmul(re, wr);
        VVid t2 = kf->vmul(im, wi);
        VVid t3 = kf->vadd(t1, t2);
        VVid t4 = kf->vmul(re, wi);
        VVid t5 = kf->vmul(im, wr);
        VVid t6 = kf->vadd(t4, t5);
        kf->vstore(fft, t3, 2);
        kf->vstore(fft, t6, 2);
        kf->scalarChain(11);
    }
    Kernel *kg = p->newKernel("gmtry");
    {
        VVid iv = kg->vload(idx);
        VVid gv = kg->vgather(tbl, iv);
        VVid a = kg->vload(red);
        VVid t1 = kg->vmul(gv, a);
        VVid t2 = kg->vadd(t1, gv);
        kg->vscatter(tbl, t2, iv);
        kg->scalarChain(11);
    }
    Kernel *kr = p->newKernel("emit");
    {
        VVid a = kr->vload(red), b = kr->vload(ma);
        VVid t1 = kr->vmul(a, b);
        SVid s = kr->vreduce(t1);
        SVid acc = kr->sloadSlot(acc_slot);
        SVid sum = kr->sarith(Opcode::SAdd, acc, s);
        kr->sstoreSlot(acc_slot, sum);
        kr->scalarChain(11);
    }
    p->addLoop(km, 45, vlConstant(128));
    p->addLoop(kf, 40, vlConstant(64));
    p->addLoop(kg, 35, vlConstant(96));
    p->addLoop(kr, 45, vlConstant(128));
    p->setOuterReps(2);
    return p;
}

/**
 * su2cor: quantum chromodynamics Monte Carlo. Medium vector lengths
 * and stride-2 accesses over the lattice, multiply heavy.
 */
std::unique_ptr<Program>
makeSu2cor()
{
    auto p = std::make_unique<Program>("su2cor");
    int u1 = p->array(384 * kKiB), u2 = p->array(384 * kKiB);
    int g = p->array(384 * kKiB), wrk = p->array(384 * kKiB);
    int lnk = p->array(kKiB); // invariant gauge links

    Kernel *k1 = p->newKernel("sweep");
    {
        VVid a = k1->vload(u1, 2), b = k1->vload(u2, 2);
        VVid c = k1->vload(g);
        VVid w0 = k1->vloadFixed(lnk, 0, 64);
        VVid t1 = k1->vmul(a, b);
        VVid t2 = k1->vmul(t1, c);
        VVid t3 = k1->vmul(a, c);
        VVid t4 = k1->vadd(t2, t3);
        VVid t5 = k1->vmul(t4, b);
        VVid t6 = k1->vadd(t5, t1);
        VVid t7 = k1->vmul(t6, w0);
        k1->vstore(wrk, t4);
        k1->vstore(u1, t7, 2);
        k1->scalarChain(45); // lattice-site update bookkeeping
    }
    Kernel *k2 = p->newKernel("update");
    {
        VVid a = k2->vload(wrk), b = k2->vload(g);
        VVid w0 = k2->vloadFixed(lnk, 0, 64);
        VVid t1 = k2->vmul(a, b);
        VVid t2 = k2->vadd(t1, a);
        VVid t3 = k2->vmul(t2, b);
        VVid t4 = k2->vadd(t3, w0);
        k2->vstore(u2, t4, 2);
        k2->scalarChain(25);
    }
    p->addLoop(k1, 75, vlConstant(64));
    p->addLoop(k2, 75, vlConstant(64));
    p->setOuterReps(3);
    return p;
}

/**
 * tomcatv: mesh generation. Long vectors in the vectorized sweeps,
 * but the largest scalar component of the ten programs (the paper's
 * Table 2 shows 125.8M scalar vs 7.2M vector instructions), modeled
 * by chains of dependent scalar work between the vector loops. The
 * paper reports its lowest OOOVA speedup (1.24) on this program.
 */
std::unique_ptr<Program>
makeTomcatv()
{
    auto p = std::make_unique<Program>("tomcatv");
    int x = p->array(520 * kKiB), y = p->array(520 * kKiB);
    int rx = p->array(520 * kKiB), ry = p->array(520 * kKiB);
    int aa = p->array(520 * kKiB), dd = p->array(520 * kKiB);
    int rc = p->array(kKiB); // invariant relaxation coefficients

    Kernel *k1 = p->newKernel("resid");
    {
        VVid a = k1->vload(x), b = k1->vload(y);
        VVid c = k1->vload(rx), d = k1->vload(ry);
        VVid w0 = k1->vloadFixed(rc, 0, 127);
        VVid t1 = k1->vmul(a, b);
        VVid t2 = k1->vadd(t1, c);
        VVid t3 = k1->vmul(t2, d);
        VVid t4 = k1->vadd(t3, t1);
        VVid t5 = k1->vmul(t4, a);
        VVid t6 = k1->vadd(t5, b);
        VVid t7 = k1->vmul(t6, c);
        VVid t8 = k1->vadd(t7, t2);
        VVid t9 = k1->vmul(t8, w0);
        VVid t10 = k1->vadd(t9, t4);
        k1->vstore(ry, t10);
        k1->scalarChain(120); // per-row scalar mesh bookkeeping
    }
    Kernel *k2 = p->newKernel("solve");
    {
        VVid a = k2->vload(rx), b = k2->vload(ry), c = k2->vload(dd);
        VVid t1 = k2->vdiv(a, c);
        VVid t2 = k2->vmul(t1, b);
        VVid t3 = k2->vadd(t2, a);
        VVid t4 = k2->vmul(t3, c);
        k2->vstore(aa, t2);
        k2->vstore(dd, t4);
        k2->scalarChain(120);
    }
    // The scalar boundary/tridiagonal bookkeeping between sweeps.
    // No stores here: the scalar phases only read the mesh, so the
    // late-commit model costs tomcatv almost nothing (paper: <5%).
    Kernel *k3 = p->newKernel("boundary");
    {
        k3->scalarChain(230);
        VVid a = k3->vload(x);
        VVid t1 = k3->vshift(a);
        k3->vreduce(t1);
    }
    p->addLoop(k1, 50, vlConstant(127));
    p->addLoop(k2, 50, vlConstant(127));
    p->addLoop(k3, 40, vlConstant(16));
    p->setOuterReps(3);
    return p;
}

/**
 * bdna: molecular dynamics of DNA. The paper highlights its
 * extremely large basic blocks (more than 800 vector instructions)
 * and that 69% of its memory traffic is spill traffic; it is the one
 * program that keeps improving up to 64 physical registers. The
 * kernel loads a wide particle working set and consumes it in
 * load order, which defeats farthest-next-use allocation over 8
 * registers and produces the desired heavy spilling.
 */
std::unique_ptr<Program>
makeBdna()
{
    auto p = std::make_unique<Program>("bdna");
    int xs = p->array(768 * kKiB), fs = p->array(768 * kKiB);
    int out = p->array(768 * kKiB);

    Kernel *k = p->newKernel("forces");
    {
        constexpr int kWide = 40;
        VVid vals[kWide];
        for (int i = 0; i < kWide; ++i)
            vals[i] = k->vload(i % 2 ? xs : fs);
        // Four partial accumulators give independent chains (ILP),
        // but every loaded value is still consumed long after its
        // definition, so most of them cross a spill.
        VVid acc[4];
        for (int a = 0; a < 4; ++a)
            acc[a] = k->vmul(vals[a], vals[a + 4]);
        for (int i = 8; i < kWide; ++i)
            acc[i % 4] = k->vadd(acc[i % 4], vals[i]);
        VVid s1 = k->vadd(acc[0], acc[1]);
        VVid s2 = k->vadd(acc[2], acc[3]);
        VVid s3 = k->vmul(s1, s2);
        k->vstore(out, s3);
        k->vstore(fs, s1);
    }
    // The scalar phases between force loops dominate bdna's
    // instruction count (paper Table 2: 239M scalar vs 19.6M
    // vector instructions).
    Kernel *ks = p->newKernel("bookkeeping");
    ks->scalarChain(250);
    p->addLoop(k, 30, vlConstant(96));
    p->addLoop(ks, 120, vlConstant(96));
    p->setOuterReps(3);
    return p;
}

/**
 * trfd: two-electron integral transformation. Triangular loop nests
 * give a small average vector length; the main loop carries a
 * memory dependence from the last vector store of iteration i to
 * the first vector load of iteration i+1 (same address), which is
 * why the paper reports its largest early-commit speedup (1.72),
 * its worst late-commit degradation (41%), and its largest
 * SLE+VLE gain (2.13). Eight array streams compete for six
 * allocatable A registers, producing scalar pointer spills.
 */
std::unique_ptr<Program>
makeTrfd()
{
    auto p = std::make_unique<Program>("trfd");
    int xijks = p->array(256 * kKiB), xrsij = p->array(256 * kKiB);
    int v1 = p->array(256 * kKiB), v2 = p->array(256 * kKiB);
    int v3 = p->array(256 * kKiB), v4 = p->array(256 * kKiB);
    int tmp = p->array(4 * kKiB); // the cross-iteration temporary
    int acc_slot = p->scalarSlot();

    constexpr uint16_t kTmpVl = 64;

    Kernel *k = p->newKernel("transform");
    {
        // First op: load the temporary written by the previous
        // iteration (cross-iteration store->load dependence).
        VVid t_in = k->vloadFixed(tmp, 0, kTmpVl);
        VVid a = k->vload(v1), b = k->vload(v2);
        VVid c = k->vload(v3), d = k->vload(v4);
        VVid t1 = k->vmul(a, b);
        VVid t2 = k->vadd(t1, c);
        VVid t3 = k->vmul(t2, d);
        VVid t4 = k->vadd(t3, t_in);
        VVid t5 = k->vmul(t4, a);
        k->vstore(xijks, t3);
        k->vstore(xrsij, t5);
        // Last op: store the temporary for the next iteration.
        k->vstoreFixed(tmp, t4, 0, kTmpVl);
        k->scalarChain(60); // triangular index computation
    }
    Kernel *k2 = p->newKernel("accum");
    {
        VVid a = k2->vload(xrsij), b = k2->vload(xijks);
        VVid t1 = k2->vmul(a, b);
        SVid s = k2->vreduce(t1);
        SVid acc = k2->sloadSlot(acc_slot);
        SVid sum = k2->sarith(Opcode::SAdd, acc, s);
        k2->sstoreSlot(acc_slot, sum);
        k2->scalarChain(40);
    }
    p->addLoop(k, 90, vlTriangular(120, 8, 8));
    p->addLoop(k2, 45, vlConstant(32));
    p->setOuterReps(3);
    return p;
}

/**
 * dyfesm: structural dynamics finite elements. Small vector lengths
 * (the shortest of the set), and loop-carried scalar accumulators
 * that the compiler keeps in memory slots across iterations: a
 * scalar store at the bottom of the loop feeds a scalar load at the
 * top of the next iteration. Scalar load elimination (SLE) bypasses
 * that pair and effectively unrolls the loop, the behaviour the
 * paper uses to explain dyfesm's outlier SLE speedup (1.36) and
 * late-commit degradation (47%).
 */
std::unique_ptr<Program>
makeDyfesm()
{
    auto p = std::make_unique<Program>("dyfesm");
    int xd = p->array(128 * kKiB), fe = p->array(128 * kKiB);
    int stif = p->array(128 * kKiB), disp = p->array(128 * kKiB);
    int acc0 = p->scalarSlot(), acc1 = p->scalarSlot();

    Kernel *k = p->newKernel("element");
    {
        SVid e0 = k->sloadSlot(acc0);
        SVid e1 = k->sloadSlot(acc1);
        // A wide element working set: the early values a, b, c stay
        // live until the very end, pushing pressure past the 8
        // architected registers and producing per-iteration spill
        // store/reload pairs — the food for vector load elimination.
        VVid a = k->vload(xd), b = k->vload(fe), c = k->vload(stif);
        VVid d = k->vload(xd, 2), e = k->vload(fe, 2);
        VVid t1 = k->vmul(a, b);
        VVid t2 = k->vadd(t1, c);
        VVid t3 = k->vmul(t2, d);
        VVid t4 = k->vadd(t3, e);
        VVid t5 = k->vmul(t4, t1);
        VVid t6 = k->vadd(t5, a);   // early values reused late
        VVid t7 = k->vmul(t6, b);
        VVid t8 = k->vadd(t7, c);
        VVid t9 = k->vadd(t8, d);
        VVid t10 = k->vmul(t9, e);
        VVid t11 = k->vadd(t10, t2);
        VVid t12 = k->vadd(t11, t3);
        SVid r = k->vreduce(t12);
        SVid s1 = k->sarith(Opcode::SAdd, e0, r);
        SVid s2 = k->sarith(Opcode::SMul, s1, e1);
        k->sstoreSlot(acc0, s1);
        k->sstoreSlot(acc1, s2);
        k->vstore(disp, t8);
        k->scalarChain(25); // element assembly bookkeeping
    }
    Kernel *k2 = p->newKernel("gather-phase");
    {
        VVid a = k2->vload(disp), b = k2->vload(stif);
        VVid t1 = k2->vmul(a, b);
        VVid t2 = k2->vadd(t1, a);
        k2->vstore(fe, t2);
        k2->scalarChain(15);
    }
    p->addLoop(k, 130, vlConstant(24));
    p->addLoop(k2, 80, vlConstant(20));
    p->setOuterReps(3);
    return p;
}

} // namespace

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names = {
        "swm256", "hydro2d", "arc2d", "flo52", "nasa7",
        "su2cor", "tomcatv", "bdna", "trfd", "dyfesm",
    };
    return names;
}

std::unique_ptr<Program>
makeBenchmarkProgram(const std::string &name)
{
    if (name == "swm256")
        return makeSwm256();
    if (name == "hydro2d")
        return makeHydro2d();
    if (name == "arc2d")
        return makeArc2d();
    if (name == "flo52")
        return makeFlo52();
    if (name == "nasa7")
        return makeNasa7();
    if (name == "su2cor")
        return makeSu2cor();
    if (name == "tomcatv")
        return makeTomcatv();
    if (name == "bdna")
        return makeBdna();
    if (name == "trfd")
        return makeTrfd();
    if (name == "dyfesm")
        return makeDyfesm();
    fatal("unknown benchmark '%s'", name.c_str());
}

Trace
makeBenchmarkTrace(const std::string &name, const GenOptions &opts)
{
    return makeBenchmarkProgram(name)->generate(opts);
}

} // namespace oova
