"""noisegate: audio adversarial examples — attack, devastate, detect."""

from noisegate.audio import AudioClip, db_distortion, read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "db_distortion",
    "read_wav",
    "write_wav",
    "__version__",
]
