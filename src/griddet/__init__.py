"""Iterative grid-based object detection at desk scale.

A fixed multi-scale grid of boxes is trained, through a stepwise piecewise
regression schedule, to migrate onto objects; detection iterates the learned
regressor with classifier gating, with no proposal stage.
"""

__version__ = "0.1.0"
