"""noisegate: audio adversarial examples — attack, devastate, detect."""

__version__ = "0.1.0"
