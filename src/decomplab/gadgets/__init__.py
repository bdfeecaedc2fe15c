"""Certified gadget constructions: switchers, teleporters, transformers and
absorbers."""

from .types import (RootedModel, Compression, CertifiedSwitcher,
                    CertifiedTransformer, CertifiedAbsorber,
                    verify_switcher, verify_compression, verify_transformer,
                    verify_absorber, verify_star_cover)
from .switchers import (build_c4_switcher, build_k2r_switcher,
                        build_c6_switcher_general, build_internal_teleporter,
                        build_external_teleporter)
from .bipartite_c6 import build_c6_switcher, build_c6_switcher_bipartite
from .transformers import build_transformer
from .absorbers import build_absorber, build_partite_neighbourhood_absorber
