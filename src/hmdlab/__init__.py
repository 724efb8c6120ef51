"""hmdlab: a desk-scale lab for hardware-performance-counter malware
detection, adversarial counter perturbations, and a moving-target defense."""

__version__ = "0.1.0"
