"""Faults injected into the exact core, shared by the certificate tests.

Each takes a MonkeyPatch `patch`, holds while it does, and calls `change`
on a list of the core as soon as it is formed; `change` changes the list
in place."""

from mg import linalg, resistance


def _after_init(patch, cls, change):
    """Make every `cls` built while `patch` holds call `change` on itself
    at the end of its constructor."""
    real = cls.__init__

    def init(self, *args):
        real(self, *args)
        change(self)

    patch.setattr(cls, "__init__", init)


def fault_canonical(patch, change):
    """Change every resistance kernel's vector 2 m_can (`canonical`) as
    soon as it has formed it, so that the kernel's mass and constant are
    summed from the changed vector."""
    _after_init(patch, resistance.ResistanceKernel, lambda kernel: change(kernel.canonical))


def fault_ground(patch, change):
    """Change every resistance kernel's S at the vertices
    (`ground.at_vertex`, Gamma's diagonal) once it has formed 2 m_can from
    the right one."""
    _after_init(patch, resistance.ResistanceKernel, lambda kernel: change(kernel.ground.at_vertex))


def fault_inverse(patch, change):
    """Change every factorization's selected inverse, its rows {j: Gamma_ij}
    (`_inverse`), as soon as it has computed them, so that the kernel
    reads S, every r_e and 2 m_can from the changed rows."""
    _after_init(patch, linalg.Factorization, lambda factors: change(factors._inverse))


def fault_solve(patch, change):
    """Change the output of every `Factorization.solve`."""
    real = linalg.Factorization.solve

    def solve(self, m):
        x = real(self, m)
        change(x)
        return x

    patch.setattr(linalg.Factorization, "solve", solve)
