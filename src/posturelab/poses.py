"""Canonical pose templates for the five posture classes.

Hand-authored stick figures with standard limb proportions (meters, adult
scale). Local frame: x = person's left, y = up, z = facing direction; the
generator scales, rotates about y, and translates these before adding noise.

The templates exist to make class separation controllable through the noise
knob; their exact geometry is a modeling choice, not a measured ground truth.
"""
from __future__ import annotations

import math

import numpy as np

from .skeleton import NUM_JOINTS, JointId, PostureLabel, Skeleton

# Segment lengths.
_TRUNK_LOWER = 0.26  # SpineBase -> SpineMid
_TRUNK_UPPER = 0.26  # SpineMid -> SpineShoulder
_NECK = 0.09
_HEAD = 0.16
_SHOULDER_HALF = 0.19
_UPPER_ARM = 0.28
_FOREARM = 0.26
_HAND = 0.08
_HAND_TIP = 0.09
_THUMB = 0.07
_HIP_HALF = 0.10
_HIP_DROP = 0.04
_THIGH = 0.42
_SHANK = 0.40
_FOOT_FWD = np.array([0.0, -0.05, 0.15])


def _pitched(angle_rad: float) -> np.ndarray:
    """Unit vector pitched forward from vertical-up by angle_rad (about x)."""
    return np.array([0.0, math.cos(angle_rad), math.sin(angle_rad)])


def _hanging(angle_rad: float) -> np.ndarray:
    """Unit vector pitched forward from vertical-down by angle_rad (about x)."""
    return np.array([0.0, -math.cos(angle_rad), math.sin(angle_rad)])


def _build_pose(
    pelvis_height: float,
    trunk_pitch_deg: float,
    hip_pitch_deg: tuple[float, float],
    knee_bend_deg: tuple[float, float],
    arm_swing_deg: tuple[float, float],
    elbow_bend_deg: tuple[float, float],
) -> np.ndarray:
    """Assemble the 25 joint positions from a handful of pose angles.

    hip_pitch is the thigh's forward rotation from vertical-down; knee_bend
    rotates the shank backward relative to the thigh; arm_swing/elbow_bend do
    the same for the arms. Tuples are (left, right).

    Chains carry small built-in bends (bowed spine, nodding head, cupped
    hand, rounded shoulders), so no bone pair is ever exactly collinear. The
    angle features need no such margin: they are cosines, which near ±1 do
    not amplify float noise as an arccos does. The bends stay because every
    synth file's bytes depend on them.
    """
    pos = np.zeros((NUM_JOINTS, 3))
    pitch = math.radians(trunk_pitch_deg)
    trunk = _pitched(pitch)
    trunk_fwd = np.array([0.0, -math.sin(pitch), math.cos(pitch)])

    base = np.array([0.0, pelvis_height, 0.0])
    pos[JointId.SpineBase] = base
    pos[JointId.SpineMid] = base + _TRUNK_LOWER * trunk - 0.02 * trunk_fwd
    spine_shoulder = base + (_TRUNK_LOWER + _TRUNK_UPPER) * trunk
    pos[JointId.SpineShoulder] = spine_shoulder
    pos[JointId.Neck] = spine_shoulder + _NECK * trunk
    pos[JointId.Head] = pos[JointId.Neck] + _HEAD * _pitched(pitch + math.radians(8.0))

    for k, (side, name) in enumerate(((1.0, "Left"), (-1.0, "Right"))):
        swing = math.radians(arm_swing_deg[k])
        bend = math.radians(elbow_bend_deg[k])
        upper_dir = _hanging(swing)
        fore_dir = _hanging(swing + bend)
        hand_dir = _hanging(swing + bend + math.radians(12.0))
        tip_dir = _hanging(swing + bend + math.radians(26.0))
        p_shoulder = spine_shoulder + np.array([side * _SHOULDER_HALF, -0.02, 0.01])
        p_elbow = p_shoulder + _UPPER_ARM * upper_dir
        p_wrist = p_elbow + _FOREARM * fore_dir
        p_hand = p_wrist + _HAND * hand_dir

        hip_pitch = math.radians(hip_pitch_deg[k])
        knee_bend = math.radians(knee_bend_deg[k])
        thigh_dir = _hanging(hip_pitch)
        shank_dir = _hanging(hip_pitch - knee_bend)
        p_hip = base + np.array([side * _HIP_HALF, -_HIP_DROP, 0.0])
        p_knee = p_hip + _THIGH * thigh_dir
        p_ankle = p_knee + _SHANK * shank_dir
        parts = {"Shoulder": p_shoulder, "Elbow": p_elbow, "Wrist": p_wrist, "Hand": p_hand,
                 "HandTip": p_hand + _HAND_TIP * tip_dir,
                 "Thumb": p_wrist + np.array([-side * _THUMB, 0.0, 0.0]),
                 "Hip": p_hip, "Knee": p_knee, "Ankle": p_ankle, "Foot": p_ankle + _FOOT_FWD}
        for part, p in parts.items():
            pos[JointId[part + name]] = p
    return pos


_TEMPLATE_PARAMS: dict[PostureLabel, dict] = {
    PostureLabel.Standing: dict(
        pelvis_height=0.96,
        trunk_pitch_deg=0.0,
        hip_pitch_deg=(0.0, 0.0),
        knee_bend_deg=(3.0, 3.0),  # soft knees, never locked straight
        arm_swing_deg=(0.0, 0.0),
        elbow_bend_deg=(4.0, 4.0),
    ),
    PostureLabel.Bending: dict(
        pelvis_height=0.93,
        trunk_pitch_deg=80.0,
        hip_pitch_deg=(5.0, 5.0),
        knee_bend_deg=(10.0, 10.0),
        arm_swing_deg=(70.0, 70.0),  # arms dangling toward the floor
        elbow_bend_deg=(10.0, 10.0),
    ),
    PostureLabel.Sitting: dict(
        pelvis_height=0.50,
        trunk_pitch_deg=8.0,
        hip_pitch_deg=(90.0, 90.0),
        knee_bend_deg=(90.0, 90.0),
        arm_swing_deg=(30.0, 30.0),
        elbow_bend_deg=(45.0, 45.0),  # hands on the lap
    ),
    PostureLabel.Walking: dict(
        pelvis_height=0.94,
        trunk_pitch_deg=3.0,
        hip_pitch_deg=(35.0, -25.0),  # mid-stride leg split
        knee_bend_deg=(10.0, 45.0),
        arm_swing_deg=(-30.0, 32.0),  # counter-swung arms
        elbow_bend_deg=(10.0, 25.0),
    ),
    PostureLabel.Crouching: dict(
        pelvis_height=0.28,
        trunk_pitch_deg=25.0,
        hip_pitch_deg=(105.0, 105.0),
        knee_bend_deg=(130.0, 130.0),  # heels under the pelvis
        arm_swing_deg=(45.0, 45.0),
        elbow_bend_deg=(50.0, 50.0),
    ),
}

POSE_TEMPLATES: dict[PostureLabel, np.ndarray] = {
    label: _build_pose(**params) for label, params in _TEMPLATE_PARAMS.items()
}


def template_skeleton(label: PostureLabel) -> Skeleton:
    """The unperturbed canonical pose for a class."""
    return Skeleton(POSE_TEMPLATES[label])


def rotation_about_y(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
