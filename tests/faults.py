"""Faults injected into the exact core, shared by the certificate tests."""

from mg import resistance


def fault_canonical(patch, change):
    """With the MonkeyPatch `patch`, make every resistance kernel built
    while it holds call `change` on its vector 2 m_can (`canonical`) as soon
    as it has formed it, so that the kernel's mass and constant are summed
    from the changed vector.  `change` changes the list in place."""
    real = resistance.ResistanceKernel.__init__

    def init(self, g):
        real(self, g)
        change(self.canonical)

    patch.setattr(resistance.ResistanceKernel, "__init__", init)
