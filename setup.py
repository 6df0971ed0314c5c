from setuptools import setup

setup(python_requires=">=3.10")
