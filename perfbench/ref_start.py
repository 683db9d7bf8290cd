"""The cli workload's speed reference: a cold interpreter that imports a
fixed set of pure-Python standard-library modules and exits.

Its cost is of the same kind as a cold `python -m hallwin.cli` (process
start, reading and unmarshalling many .pyc files, running module bodies)
but does not depend on hallwin or sympy, so a change to the library's
import cost moves the cli times and not this reference.  See speed.py.
"""

import argparse  # noqa: F401
import ast  # noqa: F401
import asyncio  # noqa: F401
import calendar  # noqa: F401
import concurrent.futures  # noqa: F401
import configparser  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import difflib  # noqa: F401
import dis  # noqa: F401
import doctest  # noqa: F401
import email.mime.multipart  # noqa: F401
import fractions  # noqa: F401
import ftplib  # noqa: F401
import http.cookiejar  # noqa: F401
import http.server  # noqa: F401
import imaplib  # noqa: F401
import inspect  # noqa: F401
import ipaddress  # noqa: F401
import json  # noqa: F401
import logging.handlers  # noqa: F401
import mailbox  # noqa: F401
import optparse  # noqa: F401
import pdb  # noqa: F401
import pickletools  # noqa: F401
import pydoc  # noqa: F401
import statistics  # noqa: F401
import tarfile  # noqa: F401
import typing  # noqa: F401
import unittest  # noqa: F401
import urllib.request  # noqa: F401
import xml.dom.minidom  # noqa: F401
import xml.etree.ElementTree  # noqa: F401
import xmlrpc.server  # noqa: F401
import zipfile  # noqa: F401
