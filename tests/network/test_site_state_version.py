"""The site-state version: every health or rate change of a site bumps it.

The engines cache each site row's capacity (``n_tasks * rate / cost *
dt``) until the topology's site-state version moves, so a ``Site`` method
that changes ``_failed`` or ``_slowdown`` without bumping the version would
leave a stale capacity running.  The writers are found by reading the
class's source, so a new mutator that is not listed here fails
``test_the_writers_are_the_listed_mutators`` until it is listed (and
thereby checked for its bump).
"""

import ast
import inspect
import textwrap

import pytest

from repro.network.site import Site, SiteKind
from repro.network.topology import Topology

#: Site state the capacity caches read.
CACHED_FIELDS = {"_failed", "_slowdown", "proc_rate_eps"}

#: Every Site method that writes a cached field, with arguments that
#: change it on a fresh site.
MUTATORS = {
    "fail": (),
    "recover": (),
    "set_slowdown": (3.0,),
}


def _writers() -> set[str]:
    """Methods of ``Site`` that assign to a cached field of ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(Site)))
    (cls,) = tree.body
    found = set()
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for sub in ast.walk(node):
            targets = []
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in CACHED_FIELDS
                ):
                    found.add(node.name)
    return found


def test_the_writers_are_the_listed_mutators():
    assert _writers() == set(MUTATORS)


def _site(name="a"):
    return Site(name, SiteKind.EDGE, total_slots=4)


@pytest.mark.parametrize("method", sorted(MUTATORS))
def test_every_mutator_bumps_the_topology_version(method):
    site = _site()
    topology = Topology([site, _site("b")])
    if method == "recover":
        site.fail()
    before = topology.site_state_version
    getattr(site, method)(*MUTATORS[method])
    assert topology.site_state_version == before + 1
    # Writing the value the site already has changes nothing.
    getattr(site, method)(*MUTATORS[method])
    assert topology.site_state_version == before + 1


def test_slot_accounting_leaves_the_version_alone():
    site = _site()
    topology = Topology([site])
    before = topology.site_state_version
    site.allocate(2)
    site.release(1)
    site.revoke_slots(1)
    site.restore_slots(1)
    site.force_used_slots(3)
    site.release_all()
    assert topology.site_state_version == before


def test_a_site_in_two_topologies_bumps_both():
    site = _site()
    first, second = Topology([site]), Topology([site])
    site.set_slowdown(2.0)
    assert first.site_state_version == 1
    assert second.site_state_version == 1
